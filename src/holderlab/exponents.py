"""Pointwise regularity probes for the limit cdf.

Two estimators for the local exponent at a coded point: the dynamical one,
a ratio of Birkhoff sums along the coding (exact for affine branches), and
the empirical one, a log-log oscillation fit over shrinking balls around
the point.  A sampler draws codings from an equilibrium weight vector so
the two estimators can be compared against the Legendre prediction across
inverse temperatures.  The sampler and the experiment driver work on the
(count, word_len) array of drawn symbols: `ifs._birkhoff` gives every
Birkhoff sum and `ifs._suffix_midpoints` every sampled point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .ifs import IFSystem, ProbVector, _birkhoff, _checked_word, \
    _suffix_midpoints, compactified_distance
from .thermo import _gibbs, _log_weights_slopes, gibbs_weights


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
    lengths in [n/2, n].  Orbit points are recovered from tail cylinders
    (stable under the contractions) rather than by iterating the expanding
    map forward, and their distances to the open-set boundary are reported
    as an overlap diagnostic.  ValueError unless every symbol is an integer
    in 1..branch_count.
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
                         liminf_estimate=float(_liminf(ratios)))


def _liminf(ratios: np.ndarray):
    """Smallest Birkhoff ratio over the back half [n/2, n] of the prefix
    lengths n, along the last axis."""
    return ratios[..., math.ceil(ratios.shape[-1] / 2) - 1:].min(axis=-1)


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
    whose oscillation is at or below the floor 1e-13 are dropped before
    fitting.  The centre and all clouds go to `evaluate` in one call, so it
    must be pointwise (see `spectrum_experiment`).
    """
    return _empirical(evaluate, [x], scales)[0]


def _empirical(evaluate, xs, scales) -> list:
    """emp_exponent at every point of xs, from one call of evaluate."""
    scales = sorted((float(r) for r in scales), reverse=True)
    if not scales:
        raise ValueError("no scales given")
    offs = _offsets(tuple(scales))
    xs = np.asarray(xs, dtype=float).reshape(-1)
    centres = xs[:, None, None]
    clouds = np.concatenate((centres - offs, centres + offs), axis=2)
    vals = np.asarray(evaluate(np.concatenate((xs, clouds.ravel()))),
                      dtype=float)
    fx = vals[:xs.size, None, None]
    oscs = np.max(np.abs(vals[xs.size:].reshape(clouds.shape) - fx), axis=2)
    return [_fit(x, scales, row) for x, row in zip(xs, oscs)]


@functools.lru_cache(maxsize=16)
def _offsets(scales: tuple) -> np.ndarray:
    """Read-only (scales, m) array of the cloud offsets, m geometric steps
    over the three decades below each radius, m = _POINTS_PER_SCALE // 2."""
    m = _POINTS_PER_SCALE // 2
    offs = np.array([np.geomspace(r * 1e-3, r, m) for r in scales])
    offs.flags.writeable = False
    return offs


def _fit(x, scales, oscs) -> EmpiricalExponent:
    """Log-log fit of one point's oscillations, one per scale; the ones at
    or below _FLOOR are dropped."""
    used, kept, dropped = [], [], []
    for r, osc in zip(scales, oscs):
        osc = float(osc)
        if osc <= _FLOOR:
            dropped.append(r)
            continue
        used.append(r)
        kept.append(osc)

    if len(used) < 2:
        raise ValueError("fewer than two scales survive the error floor; "
                         "raise the scales or lower the floor")
    logs_r = np.log(used)
    logs_o = np.log(kept)
    slope = float(np.polyfit(logs_r, logs_o, 1)[0])
    ratios = tuple(lo / lr for lr, lo in zip(logs_r, logs_o))
    fine = ratios[len(ratios) // 2:]
    return EmpiricalExponent(x=float(x), scales=tuple(used),
                             oscillations=tuple(kept), ratios=ratios,
                             slope=slope, window_min=min(fine),
                             dropped=tuple(dropped))


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
    Raises ValueError unless word_len is at least 1.
    """
    if word_len < 1:
        raise ValueError("word_len must be at least 1")
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
    every beta's pressure root t, slope t' and Gibbs weights.  beta itself
    minimises t(b) + b*alpha at alpha = -t'(beta), so the Legendre value
    there is g = t - beta*t', for any beta, with no spectrum solve and no
    bracket.  Each beta's codings stay one (count, word_len) symbol array,
    read by `dyn_exponent`'s own kernels, `_birkhoff` and `_liminf`, so the
    values are its values word by word.  The sampled points are computed
    only for an evaluator.

    `evaluate` maps an array of points to the array of values there.  It
    is called once per beta, on the centres and scale clouds of all of
    that beta's sampled points together, so it must be pointwise: the value
    at a point may not depend on which other points share the call.
    `cdf_values` is, because every point walks its own coding.  Raises
    ValueError unless count and word_len are at least 1.
    """
    if count < 1 or word_len < 1:
        raise ValueError("count and word_len must be at least 1")
    betas = [float(b) for b in betas]
    if not betas:
        return []
    if scales is None:
        scales = np.geomspace(1e-6, 1e-2, 9)
    t, t_prime, _, q = _gibbs(*_log_weights_slopes(system, p), betas)
    alphas = (-t_prime).tolist()
    gs = (t - np.array(betas) * t_prime).tolist()
    rows = []
    for i, beta in enumerate(betas):
        draws = _draw(system, q[i], word_len, count, seed + i)
        s_phi, s_psi = _birkhoff(system, p, draws)
        dyn = _liminf(s_psi / s_phi)
        if evaluate is not None:
            emp = np.array([e.slope for e in _empirical(
                evaluate, _suffix_midpoints(system, draws)[:, 0], scales)])
            emp_mean, emp_sigma = float(emp.mean()), float(emp.std())
        else:
            emp_mean = emp_sigma = float("nan")
        rows.append({
            "beta": beta,
            "alpha_pred": alphas[i],
            "g": gs[i],
            "dyn_mean": float(dyn.mean()),
            "dyn_sigma": float(dyn.std()),
            "emp_mean": emp_mean,
            "emp_sigma": emp_sigma,
            "count": int(count),
            "seed": int(seed + i),
        })
    return rows
