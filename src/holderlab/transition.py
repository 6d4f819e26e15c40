"""Transition operator of the random orbit and its limit profile.

The operator averages a bounded function over one random branch step,
(M h)(x) = sum_i p_i h(f_i(x)).  Iterating it on any bounded h with limits
at minus/plus infinity converges to an affine image of a single profile:
the probability, as a function of the start point, that the random orbit
drifts to plus infinity.  That profile is the distribution function of the
stationary measure of the backward walk, so this module calls it the cdf.
It is also the unique bounded fixed point of M with boundary values 0 and 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ifs import (
    IFSystem,
    ProbVector,
    attractor_hull,
    compactify,
    compactified_gap_factor,
    _apply_branches,
    _birkhoff,
    _branch_on_array,
    _coding_for,
    _cylinder_maps,
    _walk,
    _walk_weights,
    _windows_of,
)

# ---------------------------------------------------------------------------
# grid functions


@dataclass(frozen=True)
class GridFunction:
    """Piecewise-linear function on a strictly increasing node grid.

    Outside the node span the function takes the boundary constants, which
    stand for the values at minus and plus infinity.
    """

    nodes: np.ndarray
    values: np.ndarray
    boundary_left: float = 0.0
    boundary_right: float = 0.0

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape:
            raise ValueError("nodes and values must be 1-d arrays of equal length")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    def __call__(self, x):
        return np.interp(x, self.nodes, self.values,
                         left=self.boundary_left, right=self.boundary_right)

    def cell_oscillation(self) -> float:
        """Max jump between adjacent nodes; a bound scale for interpolation
        error of monotone-structured data read through this grid."""
        return float(np.max(np.abs(np.diff(self.values))))

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.nodes, values, self.boundary_left,
                            self.boundary_right)


def uniform_grid(system: IFSystem, size: int = 4097,
                 margin: float = 0.25) -> np.ndarray:
    """Uniform nodes spanning the attractor hull plus a margin on each side,
    the margin given as a fraction of the hull diameter."""
    a, b = attractor_hull(system)
    a, b = float(a), float(b)
    pad = margin * (b - a)
    return np.linspace(a - pad, b + pad, size)


# ---------------------------------------------------------------------------
# cdf evaluation by cylinder mass accumulation


def eval_cdf(system: IFSystem, p: ProbVector, x, tol: float = 1e-12,
             max_depth: int = 100_000):
    """Value of the limit cdf at x with a guaranteed error bound.

    Walks the coding of x, accumulating the mass of branch choices whose
    orbit escapes to plus infinity before the orbit of x leaves resolution.
    Stops once the undecided cylinder mass drops to tol, or exactly when the
    orbit parks on a hull endpoint, which happens at every cylinder endpoint
    in rational arithmetic.  Returns (value, error_bound); a NaN x raises
    ValueError.  With a rational system and weights, the accumulated and
    the undecided mass after k steps are kept as integer numerators over
    d^k, d the common denominator of the weights, and the value is one
    Fraction at the end.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a, b = system._coding.hull
    q = _walk_weights(system, p)
    zero, one = q._unit
    if x <= a:
        return zero, 0.0
    if x >= b:
        return one, 0.0
    num = q._numerators
    # acc and mass are numerators over scale = d^k, which stays 1 unless num
    d, weights, left = num or (1, q.weights, q._left)
    acc, mass = (0, 1) if num else (zero, one)
    scale = 1
    coding, y0 = _coding_for(system, x)
    a, b = coding.hull
    for y, sym, gap in _walk(coding, y0, max_depth):
        if float(mass / scale) <= tol:
            break
        if y == a:
            mass = 0
            break
        if y == b:
            acc, mass = acc + mass, 0
            break
        # in a gap, the branches whose windows lie left of y escape up
        acc = acc * d + mass * left[sym - 1]
        scale *= d
        if gap:
            mass = 0
            break
        mass *= weights[sym - 1]
    return (Fraction(acc, scale) if num else acc), float(mass / scale)


def cdf_values(system: IFSystem, p: ProbVector, xs, tol: float = 1e-12,
               max_depth: int = 100_000) -> np.ndarray:
    """Vectorised eval_cdf over an array of points; tol may be 0.  A NaN
    point raises ValueError, as in `eval_cdf`."""
    xs = np.asarray(xs, dtype=float)
    if np.isnan(xs).any():
        raise ValueError("x must not be NaN")
    state = _orbit_start(system, xs.ravel())
    _orbit_tables(system, p, state, tol=tol, max_depth=max_depth)
    return state[1].reshape(xs.shape)


def _orbit_start(system: IFSystem, xs: np.ndarray):
    """Walk state (y, acc, mass) of float points before their first step:
    y the orbit points, acc the escaped-up mass, mass the undecided mass.
    A point at or left of the hull is decided at 0, at or right of it at 1.
    """
    a, b = (float(t) for t in system._coding.hull)
    y = xs.astype(float)
    return (y, np.where(y >= b, 1.0, 0.0),
            np.where((y <= a) | (y >= b), 0.0, 1.0))


def _orbit_tables(system: IFSystem, p: ProbVector, state: tuple, tol: float,
                  max_depth: int) -> None:
    """Shared vectorised coding walk, for every system: advances the state
    of `_orbit_start` in place by at most max_depth steps.

    Each step decides every undecided point by `_walk`'s window rule
    (`_windows_of`: one `searchsorted` on the hull windows' right edges),
    and applies every branch to the points of its window at once
    (`_apply_branches`).  The walk carries only the points whose mass is
    above tol and writes each point back once, when a hull endpoint, a gap
    or its mass decides it, or after the last step.  A decided point is
    never stepped again, here or in a later call, as in `eval_cdf`.  So a
    point's values do not depend on the other points of the batch, and at
    tol 0, n calls of one step give the bits of one call of n steps.
    """
    a, b = (float(t) for t in system._coding.hull)
    weights, cum = p._float_weights
    idx = np.flatnonzero(state[2] > tol)
    y, acc, mass = (o[idx] for o in state)
    for _ in range(max_depth):
        if not idx.size:
            break
        # an orbit parked on a hull endpoint is decided: at a all of its
        # mass drifts down, at b all of it drifts up; count_nonzero asks
        # "any?" at a third of the fixed cost of any() on small arrays
        at_b = y == b
        parked = at_b | (y == a)
        if np.count_nonzero(parked):
            acc[at_b] += mass[at_b]
            mass[parked] = 0.0
            idx, (y, acc, mass) = _settle(parked, idx, (y, acc, mass), state)
        k, inside = _windows_of(system, y)
        # in a gap, the branches whose windows lie left of y escape up
        acc = acc + mass * cum[k]
        if np.count_nonzero(inside) < inside.size:
            gap = ~inside
            mass[gap] = 0.0
            idx, (y, acc, mass) = _settle(gap, idx, (y, acc, mass), state)
            k = k[inside]
        mass = mass * weights[k]
        y = _apply_branches(system, k, y)
        done = mass <= tol
        if np.count_nonzero(done):
            idx, (y, acc, mass) = _settle(done, idx, (y, acc, mass), state)
    for o, c in zip(state, (y, acc, mass)):
        o[idx] = c


def _settle(done, idx, carried, out):
    """Write the carried points marked done to the full arrays out, at their
    indices idx, and return the indices and arrays of the points carried on."""
    gone = idx[done]
    for o, c in zip(out, carried):
        o[gone] = c[done]
    keep = ~done
    return idx[keep], tuple(c[keep] for c in carried)


def cdf_grid(system: IFSystem, p: ProbVector, size: int = 4097) -> GridFunction:
    """The cdf at tol 1e-13 on `uniform_grid`'s nodes (margin 0.25)."""
    nodes = uniform_grid(system, size)
    return GridFunction(nodes, cdf_values(system, p, nodes, tol=1e-13),
                        boundary_left=0.0, boundary_right=1.0)


# ---------------------------------------------------------------------------
# operator application and iteration


def apply_transition(system: IFSystem, p: ProbVector,
                     h: GridFunction) -> GridFunction:
    """One averaging step (M h)(x) = sum_i p_i h(f_i(x)) on the grid."""
    new = np.zeros_like(h.values)
    for i in system.symbols():
        new += float(p[i]) * h(_branch_on_array(system.branch(i), h.nodes))
    return h.with_values(new)


@dataclass(frozen=True)
class ConvergenceDiagnostics:
    residuals: np.ndarray      # sup distance to the predicted limit per step
    rate: float                # fitted geometric decay factor
    r_squared: float
    floor: float               # residual plateau set by grid resolution
    n_fit: int                 # number of leading steps used in the fit
    diverged: bool


def iterate_transition(system: IFSystem, p: ProbVector, h0: GridFunction,
                       n_max: int = 80) -> ConvergenceDiagnostics:
    """Iterate the operator from h0 and compare against the predicted limit
    (h0(+inf) - h0(-inf)) * cdf + h0(-inf), the cdf at tol 1e-14.

    The residual sequence decays geometrically until it hits the resolution
    floor of the grid; the decay factor is fitted on the pre-floor segment.
    """
    lim_vals = (h0.boundary_right - h0.boundary_left) \
        * cdf_values(system, p, h0.nodes, tol=1e-14) + h0.boundary_left
    h = h0
    residuals = []
    for _ in range(n_max):
        h = apply_transition(system, p, h)
        residuals.append(float(np.max(np.abs(h.values - lim_vals))))
    residuals = np.array(residuals)

    floor = float(residuals.min())
    above = residuals > max(10 * floor, 1e-300)
    n_fit = int(np.argmin(above)) if not above.all() else len(residuals)
    n_fit = max(n_fit, 2)
    ns = np.arange(1, n_fit + 1)
    logr = np.log(residuals[:n_fit])
    slope, intercept = np.polyfit(ns, logr, 1)
    pred = slope * ns + intercept
    ss_res = float(np.sum((logr - pred) ** 2))
    ss_tot = float(np.sum((logr - logr.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    diverged = bool(residuals[-1] > residuals[0] * 10)
    return ConvergenceDiagnostics(residuals=residuals, rate=float(math.exp(slope)),
                                  r_squared=r2, floor=floor, n_fit=n_fit,
                                  diverged=diverged)


# ---------------------------------------------------------------------------
# Hoelder seminorm over grids


def holder_seminorm(h: GridFunction, alpha: float, mode: str = "pairs",
                    include_boundary: bool = True, block: int = 64) -> float:
    """Largest ratio |h(x) - h(y)| / d(x, y)^alpha over grid node pairs.

    mode "pairs" returns the exact maximum over all pairs, mode "adjacent"
    only over neighbours (a fast lower bound).  The two virtual boundary
    points at plus/minus infinity join the scan unless include_boundary is
    False.  "pairs" cuts the compactified nodes into blocks of `block` nodes,
    scans each block against itself, then scans block pairs in descending
    order of a certified bound on their ratios until the bound falls below
    the running best.  Every ratio it computes is the one an all-pairs scan
    computes, so the maximum is bit-identical to that scan.  Raises
    ValueError if a scanned value is not finite.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    pos = compactify(h.nodes)
    vals = h.values
    if include_boundary:
        pos = np.concatenate([[-1.0], pos, [1.0]])
        vals = np.concatenate([[h.boundary_left], h.values, [h.boundary_right]])
    if not np.all(np.isfinite(vals)):
        raise ValueError("holder_seminorm needs finite values")
    if mode == "adjacent":
        dv = np.abs(np.diff(vals))
        dd = np.diff(pos)
        good = dd > 0
        return float(np.max(dv[good] / dd[good] ** alpha)) if good.any() else 0.0
    if mode != "pairs":
        raise ValueError(f"unknown mode {mode!r}")
    if block < 1:
        raise ValueError("block must be positive")
    return _pairs_max(pos, vals, alpha, block)


# a block pair is skipped only when its bound lies below the running best by
# this relative margin, since libm pow is not monotone to the last bit
_PRUNE_SLACK = 1e-12
# node pairs compared per vectorised call; each temporary of a chunk takes
# 8 bytes a pair, and 256 KB ones ran `holder_seminorm` faster than 2 MB ones
_CHUNK_PAIRS = 1 << 15


def _pairs_max(pos: np.ndarray, vals: np.ndarray, alpha: float,
               block: int) -> float:
    """Exact max of |vals_j - vals_i| / (pos_j - pos_i)^alpha over index pairs
    i < j with pos_j > pos_i, by certified pruning of block pairs.

    pos is nondecreasing up to rounding: compactify can put a huge node one
    ulp below its left neighbour, so the bounds take each block's extreme
    positions rather than its first and last."""
    n = pos.size
    if n < 2:
        return 0.0
    nb = -(-n // block)
    # repeating the last node in the padding only repeats existing pairs
    pad = (0, nb * block - n)
    bpos = np.pad(pos, pad, mode="edge").reshape(nb, block)
    bval = np.pad(vals, pad, mode="edge").reshape(nb, block)
    step = max(1, _CHUNK_PAIRS // (block * block))

    best = 0.0
    vmin, vmax = bval.min(axis=1), bval.max(axis=1)
    # every ratio inside a block of equal values is 0 (outside the hull, in
    # a gap), which cannot raise the best
    diag = np.flatnonzero(vmax > vmin)
    for s in range(0, diag.size, step):
        best = _block_pairs_max(bpos, bval, diag[s:s + step],
                                diag[s:s + step], alpha, best, same=True)

    # blocks I < J: every pair gains at most the widest value spread across
    # them and lies at least the gap between them apart; blocks that touch
    # or overlap have no gap and are always scanned
    bi, bj = np.triu_indices(nb, k=1)
    spread = np.maximum(vmax[bj] - vmin[bi], vmax[bi] - vmin[bj])
    gap = bpos.min(axis=1)[bj] - bpos.max(axis=1)[bi]
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = spread / np.maximum(gap, 0.0) ** alpha
    bound[spread == 0] = 0.0
    cand = np.flatnonzero(bound > best * (1 - _PRUNE_SLACK))
    cand = cand[np.argsort(-bound[cand], kind="stable")]
    for s in range(0, cand.size, step):
        if not bound[cand[s]] > best * (1 - _PRUNE_SLACK):
            break
        sel = cand[s:s + step]
        best = _block_pairs_max(bpos, bval, bi[sel], bj[sel], alpha, best)
    return best


def _block_pairs_max(bpos, bval, bi, bj, alpha, best, same=False):
    """Running max over the node pairs of block pairs (bi[k], bj[k]), bi < bj,
    or bi == bj when `same`, with the ratio expression of an all-pairs scan."""
    dd = bpos[bj][:, None, :] - bpos[bi][:, :, None]
    dv = np.abs(bval[bj][:, None, :] - bval[bi][:, :, None])
    keep = dd > 0
    if same:
        keep &= np.triu(np.ones(dd.shape[1:], dtype=bool), k=1)
    if keep.any():
        best = max(best, float((dv[keep] / dd[keep] ** alpha).max()))
    return best


# ---------------------------------------------------------------------------
# spectral gap probe


@dataclass(frozen=True)
class GapProbeReport:
    alpha: float
    norms: np.ndarray          # seminorm estimates of the iterates, per step
    sup_norms: np.ndarray
    slope: float               # fitted slope of log norms over the last half
    slope_stderr: float
    verdict: str               # "bounded" | "growing" | "inconclusive"


def _ramp(nodes: np.ndarray, a: float, b: float) -> np.ndarray:
    u = np.clip((nodes - a) / (b - a), 0.0, 1.0)
    return 0.5 * (1 - np.cos(np.pi * u))


def gap_probe(system: IFSystem, p: ProbVector, alpha: float, n_max: int = 60,
              grid_size: int = 8193, margin: float = 0.25,
              probe_words: int = 64, seed: int = 0) -> GapProbeReport:
    """Track the alpha-seminorm of operator iterates of a smooth ramp.

    The iterates of the ramp are evaluated exactly through the coding walk
    (no interpolation), so the seminorm estimate combines three probe
    families: adjacent and subsampled node pairs of the grid, and endpoint
    pairs of depth-n cylinders whose scale shrinks with the iterate, picked
    per step as the heaviest mass-to-diameter words among constant and
    seeded random words.  On a fixed grid alone the estimate would stall at
    the grid scale and growth beyond it would be invisible.

    The verdict comes from the fitted slope of log(seminorm) against n over
    the last half of the run: bounded when |slope| < 1e-3, growing when
    slope > 5e-3 with a positive margin over its standard error.  alpha
    must lie in (0, 1] and n_max be at least 3, so that the fit has two
    points.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if n_max < 3:
        raise ValueError("n_max must be at least 3")
    if not system.is_affine:
        raise NotImplementedError("gap probe requires affine branches")
    rng = np.random.default_rng(np.random.Philox(key=seed))
    a, b = (float(t) for t in attractor_hull(system))
    nodes = uniform_grid(system, grid_size, margin)
    pair_scan = _pair_scan(compactify(nodes), alpha,
                           np.linspace(0, nodes.size - 1, 257).astype(int))
    s_count = system.branch_count
    words = np.repeat(np.arange(1, s_count + 1)[:, None], n_max, axis=1)
    if probe_words > 0:
        words = np.vstack([words, rng.integers(1, s_count + 1,
                                               size=(probe_words, n_max))])
    cylinder_best = _cylinder_probe_max(system, p, alpha, words)

    # exact iterate values at the nodes, one step of the coding walk each
    state = _orbit_start(system, nodes)
    norms = np.zeros(n_max)
    sups = np.zeros(n_max)
    for n in range(n_max):
        _orbit_tables(system, p, state, tol=0.0, max_depth=1)
        y, acc, mass = state
        vals = acc + mass * _ramp(y, a, b)
        sups[n] = float(np.max(np.abs(vals)))
        norms[n] = max(pair_scan(vals), float(cylinder_best[n]))

    half = n_max // 2
    ns = np.arange(half + 1, n_max + 1)
    logv = np.log(norms[half:])
    slope, stderr = _ls_slope(ns, logv)
    if abs(slope) < 1e-3:
        verdict = "bounded"
    elif slope > 5e-3 and slope - 2 * stderr > 0:
        verdict = "growing"
    else:
        verdict = "inconclusive"
    return GapProbeReport(alpha=alpha, norms=norms, sup_norms=sups,
                          slope=float(slope), slope_stderr=float(stderr),
                          verdict=verdict)


def _pair_scan(pos, alpha, sub):
    """The grid part of a gap probe's seminorm, as a function of the node
    values: the largest ratio over adjacent node pairs, over the pairs of
    the subsample `sub`, and against the virtual boundary points at minus
    and plus infinity (values 0 and 1).  The `** alpha` denominators depend
    on the nodes alone, so they are paid once per probe, not once per step.
    """
    dd = np.diff(pos)
    adjacent = np.flatnonzero(dd > 0)
    adjacent_den = dd[adjacent] ** alpha
    ps = pos[sub]
    i, j = np.nonzero(ps[None, :] - ps[:, None] > 0)
    sub_den = (ps[j] - ps[i]) ** alpha
    left_den = (ps + 1.0) ** alpha
    right_den = (1.0 - ps) ** alpha

    def scan(vals):
        dv = np.abs(np.diff(vals))[adjacent]
        best = float(np.max(dv / adjacent_den)) if adjacent.size else 0.0
        vs = vals[sub]
        if i.size:
            best = max(best, float((np.abs(vs[j] - vs[i]) / sub_den).max()))
        return max(best, float((np.abs(vs) / left_den).max()),
                   float((np.abs(1.0 - vs) / right_den).max()))

    return scan


def _cylinder_probe_max(system, p, alpha, words):
    """Largest mass/diameter^alpha ratio over the prefixes of probe words,
    one entry per prefix length n.

    The operator iterate changes across the cylinder of a depth-n word by
    exactly the word's mass, so each prefix gives a certified pair ratio.
    Masses and diameters come in logs from `_birkhoff`, which keeps deep
    cylinders alive long after their endpoints collide in float
    arithmetic; the compactification factors from `_cylinder_maps`.
    """
    s_phi, log_mass = _birkhoff(system, p, words)
    lo_o, hi_o = (float(v) for v in system.open_set)
    c, d = _cylinder_maps(system, words)
    factor = compactified_gap_factor(c * lo_o + d, c * hi_o + d)
    log_diam = math.log(hi_o - lo_o) + s_phi
    log_ratio = log_mass - alpha * (log_diam + np.log(factor))
    return np.exp(log_ratio.max(axis=0))


def _ls_slope(xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = xs.size
    xm, ym = xs.mean(), ys.mean()
    sxx = float(np.sum((xs - xm) ** 2))
    slope = float(np.sum((xs - xm) * (ys - ym)) / sxx)
    resid = ys - (ym + slope * (xs - xm))
    var = float(np.sum(resid ** 2)) / max(n - 2, 1)
    stderr = math.sqrt(var / sxx) if sxx > 0 else math.inf
    return slope, stderr


def seminorm_refinement_sweep(make_grid, alpha: float, sizes) -> list:
    """Seminorm of the same function sampled at a ladder of grid sizes.

    make_grid maps a node count to a GridFunction.  A bounded seminorm shows
    up as a stabilising sweep; unbounded growth keeps climbing with each
    refinement.
    """
    return [holder_seminorm(make_grid(size), alpha) for size in sizes]
