"""Piecewise-linear model, the coordinate change onto it, and rigidity.

Every weight vector induces a full-branch linear system whose branch i has
slope 1/p_i and maps [sum_{j<i} p_j, sum_{j<=i} p_j] onto [0, 1].  The limit
cdf of the original system, restricted to its attractor, conjugates the
original dynamics to this model.  The coordinate map is that cdf, read off
`eval_cdf`'s certified interval, the conjugacy identity is checked on
sampled points, and the rigidity dichotomy is decided by comparing the
extremal exponents.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .ifs import IFSystem, ProbVector, _apply_branches, _check_in_hull, \
    _checked_least, _cylinder_maps, affine_system, pi_approx
from .thermo import alpha_endpoints
from .transition import GridFunction, _orbit_start, _orbit_tables, \
    cdf_values, eval_cdf, holder_seminorm, uniform_grid

# rejected draws conjugacy_residual allows per requested sample, plus a
# fixed allowance
REJECTS_PER_SAMPLE, REJECTS_ALLOWED = 10, 100
# symbols per sampled word, and the most words drawn and coded in one array
# pass, which keeps memory flat for any sample count
WORD_LEN, SAMPLE_CHUNK = 48, 4096


def linear_model(p: ProbVector) -> IFSystem:
    """Full-branch linear system with branch slopes 1/p_i on (0, 1).

    Branch i sends x to (x - L_i)/p_i with L_i the mass to its left, so the
    branch preimage intervals tile [0, 1] and touch at shared endpoints.
    Rational weights give exact rational branches.
    """
    one, pairs = p._unit[1], tuple(zip(p.weights, p._left))
    return affine_system(tuple(one / w for w, _ in pairs),
                         tuple(-left / w for w, left in pairs), (0, 1))


def _phi_depth(p: ProbVector, tol: float) -> int:
    """Coding depth at which every linear-model cylinder is at most tol wide."""
    pmax = max(p.as_floats().weights)
    return max(8, math.ceil(math.log(tol) / math.log(pmax)))


def phi(system: IFSystem, p: ProbVector, x):
    """Linear-model coordinate of a point: the stationary cdf at x.

    The value is the midpoint of the interval that `eval_cdf` certifies at
    its default tol 1e-12, i.e. of a linear-model cylinder at most 1e-12
    wide, so it is exact wherever `eval_cdf` is: at hull endpoints, at
    points parked on them and inside attractor gaps.  Exact inputs (a
    rational system and rational weights) return exact rationals.  A point
    outside the attractor hull raises OutsideHullError, a NaN x ValueError.
    """
    _check_in_hull(system, x)
    value, bound = eval_cdf(system, p, x)
    return value + type(value)(bound) / 2


def conjugacy_residual(system: IFSystem, p: ProbVector, sample_count: int,
                       seed: int = 0) -> float:
    """Largest violation of the conjugacy identity over sampled points.

    Points are the cylinder midpoints of words of 48 symbols drawn
    uniformly at random.  The expanding map f applies the branch of the
    point's first coding symbol, and the identity compares phi_{d-1}(f x)
    with the linear branch applied to phi_d(x), where phi_d is the midpoint
    of the depth-d coding cylinder in the linear model and d is
    `_phi_depth(p, 1e-10)`.  Both sides are read off one float orbit: the
    walk of f x steps the very points the walk of x steps after its first
    symbol, so the coding of f x is always the coding of x shifted by one
    symbol, and the residual measures the rounding of the accumulation (a
    few units in the last place); it is not the truncation error of phi,
    and no other depth would change what it measures.  A draw whose point
    starts outside every hull window has no first symbol and is drawn
    again; the sampler raises ValueError once it has rejected more than
    10 * sample_count + 100 draws.  All arithmetic is in float,
    rational systems and weights included.  Words are drawn, coded and
    compared as arrays of at most SAMPLE_CHUNK words at a time, non-affine
    branches included.  ValueError unless sample_count is at least 1 and
    seed at least 0.
    """
    _checked_least("sample_count", sample_count, 1)
    _checked_least("seed", seed, 0)
    depth = _phi_depth(p, 1e-10)
    weights, left = p._float_weights
    worst = 0.0
    for x, sym in _samples(system, sample_count, seed):
        if not x.size:
            continue
        lhs = _coordinates(system, p, _apply_branches(system, sym - 1, x),
                           depth - 1)
        rhs = (_coordinates(system, p, x, depth) - left[sym - 1]) \
            / weights[sym - 1]
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _samples(system: IFSystem, sample_count: int, seed: int):
    """Accepted sample points of conjugacy_residual and their first coding
    symbols, as (x, sym) array chunks in draw order.

    One call draws a chunk of words; Philox gives the same words, in the
    same order, as one word per call.  A chunk never holds more words than
    samples still missing, so every accepted point in it is used.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    allowed = REJECTS_PER_SAMPLE * sample_count + REJECTS_ALLOWED
    produced = rejected = 0
    while produced < sample_count:
        m = min(SAMPLE_CHUNK, sample_count - produced)
        words = rng.choice(system.symbols(), size=(m, WORD_LEN))
        x = _midpoints(system, words)
        r = np.searchsorted(system._step.keys, x, side="right")
        k, ok = system._step.window[0][r], system._step.inside[0][r]
        bad = rejected + np.cumsum(~ok)
        if bad[-1] > allowed:
            i = int(np.argmax(bad > allowed))  # the draw that went over
            raise ValueError(f"rejected {bad[i]} draws outside every hull "
                             f"window for {produced + np.count_nonzero(ok[:i])}"
                             f" samples")
        rejected = int(bad[-1])
        produced += int(np.count_nonzero(ok))
        yield x[ok], k[ok] + 1


def _midpoints(system: IFSystem, words: np.ndarray) -> np.ndarray:
    """Cylinder midpoints of an (m, n) array of words, in float.

    For an affine system they come from the composed prefix maps
    x -> c x + d of `_cylinder_maps`, which round differently from the
    interval-by-interval steps of `pi_approx`, so the two can differ in the
    last bits.  Other systems take `pi_approx` word by word.
    """
    if not system.is_affine:
        return np.array([float(pi_approx(system, w)[0])
                         for w in words.tolist()])
    c, d = _cylinder_maps(system, words)
    c, d = c[:, -1], d[:, -1]
    lo, hi = (c * float(v) + d for v in system.open_set)
    return lo + (hi - lo) / 2


def _coordinates(system: IFSystem, p: ProbVector, xs: np.ndarray,
                 depth: int) -> np.ndarray:
    """phi_depth at every point of xs in float: the walk's acc + mass/2
    after depth steps, or fewer where a gap or hull endpoint decides it."""
    _, acc, mass = state = _orbit_start(system, xs)
    _orbit_tables(system, p, state, tol=0.0, max_depth=depth)
    return acc + mass / 2


@dataclass(frozen=True)
class RigidityReport:
    alpha_minus: float
    alpha_plus: float
    delta: float
    max_conjugacy_residual: float
    verdict: str                 # "rigid" or "non-rigid"
    seminorm_sweep: tuple        # V_delta of the cdf across grid refinements
    tol: float

    @property
    def rigid(self) -> bool:
        return self.verdict == "rigid"

    def to_json(self) -> dict:
        return dict(asdict(self), rigid=self.rigid)


def rigidity_report(system: IFSystem, p: ProbVector, tol: float = 1e-9,
                    sample_count: int = 256, seed: int = 0,
                    grid_sizes=(1025, 2049, 4097)) -> RigidityReport:
    """Rigidity dichotomy with conjugacy and seminorm evidence.

    The verdict is `Endpoints.is_rigid(tol)`: extremal exponents equal
    within tol mean the coordinate change is as smooth as the dimension
    allows, otherwise it is singular.  The Hoelder seminorm of the cdf at
    the dimension exponent is measured across grid refinements as
    corroboration (bounded in the rigid case, growing otherwise).  ValueError
    unless tol > 0, sample_count >= 1, seed >= 0 and grid_sizes non-empty,
    each >= 2.
    """
    if not tol > 0:
        raise ValueError(f"tol must be above 0, got {tol}")
    if not grid_sizes or min(grid_sizes) < 2:
        raise ValueError("grid_sizes must be non-empty sizes of at least 2")
    ep = alpha_endpoints(system, p)
    rigid = ep.is_rigid(tol)
    residual = conjugacy_residual(system, p, sample_count, seed=seed)

    sweep = []
    for size in grid_sizes:
        nodes = uniform_grid(system, size)
        vals = cdf_values(system, p, nodes, tol=1e-14)
        h = GridFunction(nodes, vals, boundary_left=0.0, boundary_right=1.0)
        sweep.append(holder_seminorm(h, ep.delta, mode="adjacent"))
    return RigidityReport(alpha_minus=ep.alpha_minus,
                          alpha_plus=ep.alpha_plus, delta=ep.delta,
                          max_conjugacy_residual=residual,
                          verdict="rigid" if rigid else "non-rigid",
                          seminorm_sweep=tuple(sweep), tol=tol)
