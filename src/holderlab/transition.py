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
from typing import Optional

import numpy as np

from .ifs import (
    IFSystem,
    ProbVector,
    attractor_hull,
    compactify,
    compactified_gap_factor,
    hull_preimages,
    _branch_arrays,
    _cylinder_maps,
    _walk,
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
    in rational arithmetic.  Returns (value, error_bound).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _cdf_walk(system, p, [x], tol, max_depth)[0]


def _cdf_walk(system: IFSystem, p: ProbVector, xs, tol: float,
              max_depth: int) -> list:
    """eval_cdf at every point of xs, from one hull and weight table; tol
    may be 0, which walks until decided or max_depth."""
    a, b = attractor_hull(system)
    pre = hull_preimages(system)
    exact = p.is_rational and system.is_rational
    acc0, mass0 = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    lo_val, hi_val = (Fraction(0), Fraction(1)) if p.is_rational else (0.0, 1.0)
    left = [p.left_mass(sym) for sym in range(1, len(p) + 2)]

    def point(x):
        if x <= a:
            return lo_val, 0.0
        if x >= b:
            return hi_val, 0.0
        acc, mass = acc0, mass0
        for y, sym, gap in _walk(system, x, max_depth, pre):
            if float(mass) <= tol:
                break
            if y == a:
                return acc, 0.0
            if y == b:
                return acc + mass, 0.0
            # in a gap, the branches whose windows lie left of y escape up
            acc += mass * left[sym - 1]
            if gap:
                return acc, 0.0
            mass *= p[sym]
        return acc, float(mass)

    return [point(x) for x in xs]


def cdf_values(system: IFSystem, p: ProbVector, xs, tol: float = 1e-12,
               max_depth: int = 100_000) -> np.ndarray:
    """Vectorised eval_cdf over an array of points; tol may be 0."""
    xs = np.asarray(xs, dtype=float)
    if not system.is_affine:
        pts = _cdf_walk(system, p, xs.ravel().tolist(), tol, max_depth)
        return np.array([float(v) for v, _ in pts]).reshape(xs.shape)
    out, _, _, _ = _orbit_tables(system, p, xs.ravel(), tol=tol,
                                 max_depth=max_depth, keep_steps=False)
    return out.reshape(xs.shape)


def _orbit_tables(system: IFSystem, p: ProbVector, xs: np.ndarray,
                  tol: float, max_depth: int, keep_steps: bool,
                  n_steps: Optional[int] = None):
    """Shared vectorised coding walk for affine systems.

    Returns (acc, mass, y, snapshots); acc accumulates the escaping-up mass,
    mass the undecided cylinder mass, y the current orbit positions.  With
    keep_steps=True, snapshots is a list of (acc, mass, y) copies after each
    of n_steps steps, which lets callers reconstruct every operator iterate
    of a ramp function exactly.
    """
    a, b = attractor_hull(system)
    a, b = float(a), float(b)
    slopes, intercepts = _branch_arrays(system)
    pre = hull_preimages(system)
    u = np.array([float(lo) for lo, _ in pre])
    v = np.array([float(hi) for _, hi in pre])
    weights = np.array([float(w) for w in p.weights])
    cum = np.concatenate([[0.0], np.cumsum(weights)])

    y = xs.astype(float).copy()
    acc = np.zeros_like(y)
    mass = np.ones_like(y)
    mass[y <= a] = 0.0
    acc[y >= b] = 1.0
    mass[y >= b] = 0.0

    snapshots = []
    steps = n_steps if n_steps is not None else max_depth
    for _ in range(steps):
        # orbits parked on a hull endpoint are fully decided: everything
        # below a drifts down, everything at b drifts up with the remaining
        # mass (ramp values there are exactly 0 and 1, so snapshots agree)
        park_lo = mass > 0
        np.logical_and(park_lo, y == a, out=park_lo)
        mass[park_lo] = 0.0
        park_hi = mass > 0
        np.logical_and(park_hi, y == b, out=park_hi)
        acc[park_hi] += mass[park_hi]
        mass[park_hi] = 0.0

        active = mass > (0.0 if keep_steps else tol)
        if not active.any() and not keep_steps:
            break
        ya = y[active]
        if ya.size:
            inside = (u[:, None] <= ya) & (ya <= v[:, None])
            has = inside.any(axis=0)
            sym = np.argmax(inside, axis=0)  # min index wins at ties
            escaped_up = (v[:, None] < ya).sum(axis=0)

            # in a gap, the branches whose windows lie left of y escape up
            add = cum[np.where(has, sym, escaped_up)]
            acc_a = acc[active] + mass[active] * add
            mass_a = mass[active] * np.where(has, weights[sym], 0.0)
            y_a = np.where(has, slopes[sym] * ya + intercepts[sym], ya)
            acc[active] = acc_a
            mass[active] = mass_a
            y[active] = y_a
        if keep_steps:
            snapshots.append((acc.copy(), mass.copy(), y.copy()))
        if not keep_steps and not (mass > tol).any():
            break
    return acc, mass, y, snapshots


def cdf_grid(system: IFSystem, p: ProbVector, size: int = 4097,
             margin: float = 0.25, tol: float = 1e-13) -> GridFunction:
    nodes = uniform_grid(system, size, margin)
    return GridFunction(nodes, cdf_values(system, p, nodes, tol=tol),
                        boundary_left=0.0, boundary_right=1.0)


# ---------------------------------------------------------------------------
# operator application and iteration


def apply_transition(system: IFSystem, p: ProbVector,
                     h: GridFunction) -> GridFunction:
    """One averaging step (M h)(x) = sum_i p_i h(f_i(x)) on the grid."""
    new = np.zeros_like(h.values)
    for i in system.symbols():
        br = system.branch(i)
        if br.is_affine:
            fx = float(br.slope) * h.nodes + float(br.intercept)
        else:
            fx = np.array([br(x) for x in h.nodes])
        new += float(p[i]) * h(fx)
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
                       n_max: int = 80,
                       limit: Optional[GridFunction] = None) -> ConvergenceDiagnostics:
    """Iterate the operator from h0 and compare against the predicted limit
    (h0(+inf) - h0(-inf)) * cdf + h0(-inf).

    The residual sequence decays geometrically until it hits the resolution
    floor of the grid; the decay factor is fitted on the pre-floor segment.
    """
    if limit is None:
        limit = GridFunction(h0.nodes, cdf_values(system, p, h0.nodes, tol=1e-14),
                             boundary_left=0.0, boundary_right=1.0)
    lim_vals = (h0.boundary_right - h0.boundary_left) * limit.values \
        + h0.boundary_left
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
# node pairs compared per vectorised call
_CHUNK_PAIRS = 1 << 18


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
    diag = np.arange(nb)
    for s in range(0, nb, step):
        best = _block_pairs_max(bpos, bval, diag[s:s + step],
                                diag[s:s + step], alpha, best, same=True)

    # blocks I < J: every pair gains at most the widest value spread across
    # them and lies at least the gap between them apart; blocks that touch
    # or overlap have no gap and are always scanned
    bi, bj = np.triu_indices(nb, k=1)
    vmin, vmax = bval.min(axis=1), bval.max(axis=1)
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
    a, b = attractor_hull(system)
    a, b = float(a), float(b)
    nodes = uniform_grid(system, grid_size, margin)
    ramp0 = _ramp(nodes, a, b)

    # exact iterate values at the nodes via the coding walk
    acc0, mass0, y0, snaps = _orbit_tables(
        system, p, nodes, tol=0.0, max_depth=n_max, keep_steps=True,
        n_steps=n_max)

    pos = compactify(nodes)
    sub = np.linspace(0, nodes.size - 1, 257).astype(int)
    s_count = system.branch_count
    words = np.repeat(np.arange(1, s_count + 1)[:, None], n_max, axis=1)
    if probe_words > 0:
        words = np.vstack([words, rng.integers(1, s_count + 1,
                                               size=(probe_words, n_max))])
    cylinder_best = _cylinder_probe_max(system, p, alpha, words)

    norms = np.zeros(n_max)
    sups = np.zeros(n_max)
    for n in range(1, n_max + 1):
        acc, mass, y = snaps[n - 1]
        vals = acc + mass * _ramp(y, a, b)
        sups[n - 1] = float(np.max(np.abs(vals)))
        norms[n - 1] = max(_pair_scan(pos, vals, alpha, sub),
                           float(cylinder_best[n - 1]))

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


def _pair_scan(pos, vals, alpha, sub):
    dv = np.abs(np.diff(vals))
    dd = np.diff(pos)
    good = dd > 0
    best = float(np.max(dv[good] / dd[good] ** alpha)) if good.any() else 0.0
    ps, vs = pos[sub], vals[sub]
    dd = ps[None, :] - ps[:, None]
    dv = np.abs(vs[None, :] - vs[:, None])
    mask = dd > 0
    if mask.any():
        best = max(best, float((dv[mask] / dd[mask] ** alpha).max()))
    # virtual boundary points at minus/plus infinity
    left = np.abs(vs - 0.0) / (ps + 1.0) ** alpha
    right = np.abs(1.0 - vs) / (1.0 - ps) ** alpha
    best = max(best, float(left.max()), float(right.max()))
    return best


def _cylinder_probe_max(system, p, alpha, words):
    """Largest mass/diameter^alpha ratio over the prefixes of probe words,
    one entry per prefix length n.

    The operator iterate changes across the cylinder of a depth-n word by
    exactly the word's mass, so each prefix gives a certified pair ratio.
    The cylinders of all prefixes come from `_cylinder_maps`.  Logs keep
    deep cylinders alive long after their endpoints collide in float
    arithmetic.
    """
    idx = words - 1
    slopes, _ = _branch_arrays(system)
    weights = np.array([float(w) for w in p.weights])
    lo_o, hi_o = (float(v) for v in system.open_set)
    log_mass = np.cumsum(np.log(weights)[idx], axis=1)
    log_diam = math.log(hi_o - lo_o) - np.cumsum(np.log(slopes)[idx], axis=1)
    c, d = _cylinder_maps(system, words)
    factor = compactified_gap_factor(c * lo_o + d, c * hi_o + d)
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
