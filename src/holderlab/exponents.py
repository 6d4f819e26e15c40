"""Pointwise regularity probes for the limit cdf.

Two estimators for the local exponent at a coded point: the dynamical one,
a ratio of Birkhoff sums along the coding (exact for affine branches), and
the empirical one, a log-log oscillation fit over shrinking balls around
the point.  A sampler draws codings from an equilibrium weight vector so
the two estimators can be compared against the Legendre prediction across
inverse temperatures.  The sampler works on the (count, word_len) array of
drawn symbols, and the experiment driver on the draws of all its
temperatures stacked into one such array: `ifs._birkhoff` gives every
Birkhoff sum and `ifs._suffix_midpoints` every sampled point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .ifs import IFSystem, ProbVector, _birkhoff, _checked_least, \
    _checked_word, _suffix_midpoints, compactified_distance
from .thermo import _gibbs, _log_weights_slopes, gibbs_weights
from .transition import _ls_slope


@dataclass(frozen=True)
class ExponentTrace:
    word: tuple
    ratios: tuple               # Birkhoff-sum ratios, one per prefix length
    boundary_distances: tuple   # orbit-point distance to the open-set boundary
    liminf_estimate: float      # min ratio over the back half of the prefixes


def dyn_exponent(system: IFSystem, p: ProbVector, word) -> ExponentTrace:
    """Dynamical exponent estimate along a finite coding.

    The k-th ratio divides the weight sum by the log-derivative sum over the
    first k symbols; the liminf estimate takes the worst ratio over prefix
    lengths in [n/2, n], a minimum of noisy ratios that lies below their
    limit, while `spectrum_experiment` reads the last ratio, k = n, the
    Birkhoff estimate of that limit.  Orbit points are recovered from tail
    cylinders (stable under the contractions) rather than by iterating the
    expanding map forward, and their distances to the open-set boundary are
    reported as an overlap diagnostic.  ValueError unless every symbol is an
    integer in 1..branch_count.
    """
    word = _checked_word(word, system.branch_count)
    if not word:
        raise ValueError("empty coding")
    words = np.array([word])
    mids = _suffix_midpoints(system, words)
    s_phi, s_psi = _birkhoff(system, p, words, mids)
    ratios = s_psi[0] / s_phi[0]
    o_lo, o_hi = system.open_set
    dists = [min(compactified_distance(y, o_lo), compactified_distance(y, o_hi))
             for y in mids[0].tolist()]
    return ExponentTrace(word=word, ratios=tuple(ratios.tolist()),
                         boundary_distances=tuple(dists),
                         liminf_estimate=float(
                             ratios[math.ceil(ratios.size / 2) - 1:].min()))


@dataclass(frozen=True)
class EmpiricalExponent:
    x: float
    scales: tuple
    oscillations: tuple
    ratios: tuple       # log osc / log r per retained scale
    slope: float        # least-squares slope of log osc against log r
    window_min: float   # min ratio over the finest half of the scales
    dropped: tuple      # scales whose oscillation fell at or below the floor


_POINTS_PER_SCALE = 33
_FLOOR = 1e-13


def emp_exponent(evaluate: Callable, x: float,
                 scales: Sequence[float]) -> EmpiricalExponent:
    """Empirical exponent from oscillations of `evaluate` near x.

    Each ball of radius r is probed at 33 points, the centre and 16
    geometric offsets on each side spanning three decades below r; the
    oscillation is the largest deviation from the centre value.  Scales
    whose oscillation is at or below the floor 1e-13 are dropped before the
    `transition._ls_slope` fit of log oscillation against log r.  The
    clouds of all scales share their points: `evaluate` gets, in one call,
    x - o for every distinct offset o of the scales from the largest down,
    x itself and x + o from the smallest up, each distinct float once, so
    it must be pointwise (see `spectrum_experiment`).  ValueError unless x
    is a finite number, every scale is a finite number above 0 and two
    scales with distinct logs survive the floor.
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be a finite number, got {x}")
    scales, oscs = _empirical(evaluate, [x], scales)
    return _fit(x, scales, oscs[0])


def _empirical(evaluate, xs, scales):
    """Scales, largest first, and the (points, scales) oscillations around
    xs from one evaluate call; ValueError unless every scale is finite
    and above 0 and two log scales differ."""
    scales = sorted((float(r) for r in scales), reverse=True)
    if not scales:
        raise ValueError("no scales given")
    for r in scales:
        if not 0 < r < math.inf:
            raise ValueError(f"scale {r} is not a finite number above 0")
    if len(set(np.log(scales).tolist())) < 2:
        raise ValueError("fewer than two distinct scales given")
    offs, index = _offsets(tuple(scales))
    m = offs.size
    xs = np.asarray(xs, dtype=float).reshape(-1)
    centres = xs[:, None]
    # each point's row ascends: x - o from the largest o down, x, x + o
    points = np.concatenate((centres - offs[::-1], centres, centres + offs),
                            axis=1)
    # offsets closer than the spacing of floats at x give one float, which
    # is evaluated once: equal points are neighbours in a row
    new = np.ones(points.shape, dtype=bool)
    new[:, 1:] = points[:, 1:] != points[:, :-1]
    place = np.cumsum(new.ravel()).reshape(points.shape) - 1
    vals = np.asarray(evaluate(points[new]), dtype=float)[place]
    # each scale's cloud: its offsets below x, then above x
    clouds = np.concatenate((m - 1 - index, m + 1 + index), axis=1)
    oscs = np.max(np.abs(vals[:, clouds] - vals[:, m, None, None]), axis=2)
    return scales, oscs


def _slopes(xs, scales, oscs) -> np.ndarray:
    """`_fit(x, scales, row).slope` for every point x of the array xs and
    its row of oscs, with the same bits: the rows whose every oscillation
    clears _FLOOR in one row-wise `_ls_slope`, the others by `_fit`."""
    full = np.all(oscs > _FLOOR, axis=1)
    slopes = np.empty(len(oscs))
    slopes[full] = _ls_slope(np.log(scales), np.log(oscs[full]))[0]
    slopes[~full] = [_fit(x, scales, row).slope
                     for x, row in zip(xs[~full], oscs[~full])]
    return slopes


@functools.lru_cache(maxsize=16)
def _offsets(scales: tuple) -> tuple:
    """(offsets, index) of the clouds: offsets the read-only sorted
    distinct cloud offsets of all the scales, index the read-only
    (scales, m) array of each scale's m offsets' places in it, m geometric
    steps over the three decades below each radius, m = _POINTS_PER_SCALE
    // 2.  Scales that share offsets, as the default half-decade ladder's
    do (144 offsets, 80 distinct), share their places."""
    m = _POINTS_PER_SCALE // 2
    offs = np.array([np.geomspace(r * 1e-3, r, m) for r in scales])
    distinct, index = np.unique(offs, return_inverse=True)
    index = index.reshape(offs.shape)
    distinct.flags.writeable = index.flags.writeable = False
    return distinct, index


def _fit(x, scales, oscs) -> EmpiricalExponent:
    """Log-log `_ls_slope` fit of one point's oscillations, one per scale;
    the ones at or below _FLOOR are dropped."""
    oscs = list(map(float, oscs))
    dropped = tuple(r for r, osc in zip(scales, oscs) if osc <= _FLOOR)
    used = [r for r, osc in zip(scales, oscs) if not osc <= _FLOOR]
    kept = [osc for osc in oscs if not osc <= _FLOOR]
    logs_r, logs_o = np.log(used).tolist(), np.log(kept).tolist()
    if len(set(logs_r)) < 2:
        raise ValueError("fewer than two distinct scales survive the error "
                         "floor; raise the scales or lower the floor")
    ratios = tuple(lo / lr for lr, lo in zip(logs_r, logs_o))
    return EmpiricalExponent(x=float(x), scales=tuple(used),
                             oscillations=tuple(kept), ratios=ratios,
                             slope=_ls_slope(logs_r, logs_o)[0],
                             window_min=min(ratios[len(ratios) // 2:]),
                             dropped=dropped)


@dataclass(frozen=True)
class TypicalSamples:
    beta: float
    alpha_predicted: float
    words: tuple
    points: tuple
    seed: int


def sample_typical(system: IFSystem, p: ProbVector, beta: float,
                   word_len: int = 60, count: int = 32,
                   seed: int = 0) -> TypicalSamples:
    """Draw codings from the equilibrium weights at this temperature.

    Symbols are iid under the Gibbs branch weights, so the drawn points are
    typical for the corresponding exponent level set; the predicted
    exponent is the negated pressure slope.  The generator is a counter
    based Philox keyed by `seed`, echoed back for reproducibility.  The
    words are drawn as one (count, word_len) array, and the points, the
    `pi_approx` midpoints of their cylinders, come from `_suffix_midpoints`.
    Raises ValueError unless count and word_len are at least 1 and seed
    at least 0.
    """
    _checked_least("count", count, 1)
    _checked_least("word_len", word_len, 1)
    _checked_least("seed", seed, 0)
    q, t_prime = gibbs_weights(system, p, beta)
    draws = _draw(system, q, word_len, count, seed)
    return TypicalSamples(beta=float(beta), alpha_predicted=-t_prime,
                          words=tuple(map(tuple, draws.tolist())),
                          points=tuple(_suffix_midpoints(system, draws)[:, 0]
                                       .tolist()),
                          seed=int(seed))


def _draw(system: IFSystem, q, word_len: int, count: int,
          seed: int) -> np.ndarray:
    """(count, word_len) array of 1-based symbols, iid under the weights q,
    from a Philox generator keyed by seed."""
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.choice(np.array(system.symbols()), size=(count, word_len), p=q)


def spectrum_experiment(system: IFSystem, p: ProbVector,
                        betas: Sequence[float], word_len: int = 60,
                        count: int = 32, seed: int = 0,
                        evaluate: Optional[Callable] = None,
                        scales: Optional[Sequence[float]] = None) -> list:
    """Compare predicted exponents with sampled estimates per temperature.

    Returns one row per beta with the Legendre prediction, dynamical
    statistics over the sampled codings, and (when an evaluator is given)
    empirical statistics at the sampled points.  Rows are plain dicts ready
    for CSV serialisation.  Beta number i draws its codings with seed
    seed + i, exactly as `sample_typical` does.

    Affine systems only, as the Gibbs weights are.  One array solve gives
    every beta's pressure root t, slope t' and Gibbs weights q.  beta itself
    minimises t(b) + b*alpha at alpha = -t'(beta), so the Legendre value
    there is the Gibbs measure's entropy over its Lyapunov exponent,
    g = -sum q log q / sum q log a (0 log 0 = 0), for any beta, with no
    spectrum solve and no bracket.  That is t - beta*t' in exact arithmetic,
    without its cancellation at large |beta|.  The draws of all betas are
    stacked into one (len(betas)*count, word_len) symbol array, beta-major,
    read by `dyn_exponent`'s own kernel, `_birkhoff`.  A word's dynamical
    exponent is its last ratio S_n psi / S_n phi, which is
    `dyn_exponent(...).ratios[-1]` bit for bit; row i's `dyn_mean` and
    `dyn_sigma` are the mean and standard deviation of those of beta i's
    block of count words.  At a Gibbs-typical point the ratios converge to
    alpha_pred (Birkhoff's ergodic theorem), and the last one is within
    O(1/word_len) of it on average: a ratio of sums, with no bias when
    every slope is equal.  The back-half minimum `liminf_estimate` lies
    below the limit by construction, so it is not the statistic here.  The
    sampled points are computed only for an evaluator.

    `evaluate` maps an array of points to the array of values there.  It
    is called once per experiment, on every beta's points: for every
    sampled point x in turn, beta-major, the ascending distinct floats
    among x - o, x and x + o, o over the distinct cloud offsets of all the
    scales (80 for the nine default scales, whose half-decade steps share
    offsets), and each scale's oscillation is read off its own 32 of them
    (`emp_exponent`).  So it must be pointwise: the value at a point may
    not depend on which other points share the call.  `cdf_values` is, because every
    point walks its own coding.  Raises ValueError unless count and
    word_len are at least 1 and seed at least 0, and, with an evaluator,
    on a scale that `emp_exponent` refuses.
    """
    _checked_least("count", count, 1)
    _checked_least("word_len", word_len, 1)
    _checked_least("seed", seed, 0)
    betas = [float(b) for b in betas]
    if not betas:
        return []
    lw, ls = _log_weights_slopes(system, p)
    _, t_prime, _, q = _gibbs(lw, ls, betas)
    alphas = (-t_prime).tolist()
    log_q = np.array([[math.log(w) if w > 0 else 0.0 for w in row]
                      for row in q.tolist()])
    # entropy over Lyapunov exponent; + 0.0 writes a zero entropy as +0.0
    gs = (-(q * log_q).sum(axis=1) / (q * ls).sum(axis=1) + 0.0).tolist()
    draws = np.concatenate([_draw(system, q_i, word_len, count, seed + i)
                            for i, q_i in enumerate(q)])
    s_phi, s_psi = _birkhoff(system, p, draws)
    dyn = s_psi[:, -1] / s_phi[:, -1]
    if evaluate is not None:
        if scales is None:
            scales = np.geomspace(1e-6, 1e-2, 9)
        xs = _suffix_midpoints(system, draws)[:, 0]
        emp = _slopes(xs, *_empirical(evaluate, xs, scales))
    rows = []
    for i, beta in enumerate(betas):
        block = slice(i * count, (i + 1) * count)
        if evaluate is not None:
            emp_mean = float(emp[block].mean())
            emp_sigma = float(emp[block].std())
        else:
            emp_mean = emp_sigma = float("nan")
        rows.append({
            "beta": beta,
            "alpha_pred": alphas[i],
            "g": gs[i],
            "dyn_mean": float(dyn[block].mean()),
            "dyn_sigma": float(dyn[block].std()),
            "emp_mean": emp_mean,
            "emp_sigma": emp_sigma,
            "count": int(count),
            "seed": int(seed + i),
        })
    return rows
