"""Piecewise-linear model, the coordinate change onto it, and rigidity.

Every weight vector induces a full-branch linear system whose branch i has
slope 1/p_i and maps [sum_{j<i} p_j, sum_{j<=i} p_j] onto [0, 1].  The limit
cdf of the original system, restricted to its attractor, conjugates the
original dynamics to this model.  The coordinate map is computed through
the symbolic coding, on the coding walk that the cdf evaluator shares, the
conjugacy identity is checked on sampled points, and the rigidity dichotomy
is decided by comparing the extremal exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ifs import IFSystem, OutsideHullError, ProbVector, _apply_branches, \
    _coding_for, _cylinder_maps, _walk, _windows_of, affine_system, pi_approx
from .thermo import alpha_endpoints
from .transition import GridFunction, _orbit_start, _orbit_tables, \
    cdf_values, holder_seminorm, uniform_grid

# rejected draws conjugacy_residual allows per requested sample, plus a
# fixed allowance
REJECTS_PER_SAMPLE, REJECTS_ALLOWED = 10, 100
# symbols per sampled word, orbit steps checked against the exclusion
# radius, and the most words drawn and coded in one array pass, which keeps
# memory flat for any sample count
WORD_LEN, EXCLUSION_STEPS, SAMPLE_CHUNK = 48, 12, 4096


def linear_model(p: ProbVector) -> IFSystem:
    """Full-branch linear system with branch slopes 1/p_i on (0, 1).

    Branch i sends x to (x - L_i)/p_i with L_i the mass to its left, so the
    branch preimage intervals tile [0, 1] and touch at shared endpoints.
    Rational weights give exact rational branches.
    """
    one = Fraction(1) if p.is_rational else 1.0
    slopes, intercepts = [], []
    left = one * 0
    for w in p.weights:
        slopes.append(one / w)
        intercepts.append(-left / w)
        left = left + w
    return affine_system(tuple(slopes), tuple(intercepts), (0, 1))


def _phi_depth(p: ProbVector, tol: float) -> int:
    """Coding depth at which every linear-model cylinder is at most tol wide."""
    pmax = max(float(w) for w in p.weights)
    return max(8, math.ceil(math.log(tol) / math.log(pmax)))


def phi(system: IFSystem, p: ProbVector, x, tol: float = 1e-12):
    """Linear-model coordinate of a point, via its symbolic coding.

    The cdf walk codes the point deep enough that its coding cylinder in
    the linear model, [acc, acc + mass], has diameter at most tol, and the
    cylinder midpoint is returned.  A point inside an attractor gap gets
    the exact common value of the two bracketing codings.  Exact inputs
    (a rational system and rational weights) return exact rationals, as in
    `eval_cdf`.  A NaN x raises ValueError.
    """
    depth = _phi_depth(p, tol)
    a, b = system._coding.hull
    if x < a or x > b:
        raise OutsideHullError(f"{x} outside attractor hull [{a}, {b}]")
    left = p._left
    exact = p.is_rational and system.is_rational
    acc, mass = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    for _, sym, gap in _walk(*_coding_for(system, x), depth):
        acc += mass * left[sym - 1]
        if gap:
            return acc
        mass *= p[sym]
    return acc + mass / 2


def conjugacy_residual(system: IFSystem, p: ProbVector, sample_count: int,
                       seed: int = 0, tol: float = 1e-10,
                       exclusion: float = 1e-6) -> float:
    """Largest violation of the conjugacy identity over sampled points.

    Points are the cylinder midpoints of words of 48 symbols drawn
    uniformly at random.  The expanding map f applies the branch of the
    point's first coding symbol, and the identity compares phi_{d-1}(f x)
    with the linear branch applied to phi_d(x), where phi_d is the midpoint
    of the depth-d coding cylinder in the linear model and tol sets d as in
    `phi`.  The two sides are equal in exact arithmetic whenever the coding
    of f x is the coding of x shifted by one symbol, so the residual
    measures that agreement plus rounding (a few units in the last place);
    it is not the truncation error of phi, whatever depth tol sets.  Points
    whose first twelve orbit steps pass within `exclusion` of a
    preimage-interval endpoint are rejected: there two codings collide and
    the identity only holds off that countable set.  An `exclusion` too
    wide for the system rejects (nearly) every draw, so the sampler raises
    ValueError once it has rejected more than 10 * sample_count + 100
    draws.  All arithmetic is in float, rational systems and weights
    included.  Words are drawn, coded and compared as arrays of at most
    SAMPLE_CHUNK words at a time, non-affine branches included.
    """
    depth = _phi_depth(p, tol)
    weights, left = p._float_weights
    worst = 0.0
    for x, sym in _samples(system, sample_count, seed, exclusion):
        if not x.size:
            continue
        lhs = _coordinates(system, p, _apply_branches(system, sym - 1, x),
                           depth - 1)
        rhs = (_coordinates(system, p, x, depth) - left[sym - 1]) \
            / weights[sym - 1]
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _samples(system: IFSystem, sample_count: int, seed: int,
             exclusion: float):
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
        sym = _first_symbols(system, x, exclusion)
        ok = sym > 0
        bad = rejected + np.cumsum(~ok)
        if bad[-1] > allowed:
            k = int(np.argmax(bad > allowed))  # the draw that went over
            raise ValueError(f"exclusion {exclusion} rejected {bad[k]} draws "
                             f"for {produced + np.count_nonzero(ok[:k])} "
                             f"samples")
        rejected = int(bad[-1])
        produced += int(np.count_nonzero(ok))
        yield x[ok], sym[ok]


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


def _first_symbols(system: IFSystem, x: np.ndarray,
                   exclusion: float) -> np.ndarray:
    """First coding symbol of every point, 0 where the point is rejected.

    The walk takes its windows from `_windows_of`, the rule of `_walk`.  A
    point is rejected when it starts in a gap or when an orbit point of its
    first EXCLUSION_STEPS lies within `exclusion` of its window's edges; a
    gap later on ends its walk, as no collision lies ahead.
    """
    u, v = system._float_windows
    first = np.zeros(x.size, dtype=int)
    live, y = np.arange(x.size), x
    for step in range(EXCLUSION_STEPS):
        k, window = _windows_of(system, y)
        k = np.minimum(k, v.size - 1)
        clear = window & ~(np.minimum(y - u[k], v[k] - y) < exclusion)
        if step == 0:
            first[live[clear]] = k[clear] + 1
        else:
            first[live[window & ~clear]] = 0
        live, y, k = live[clear], y[clear], k[clear]
        if not live.size:
            break
        y = _apply_branches(system, k, y)
    return first


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
        return {
            "alpha_minus": self.alpha_minus,
            "alpha_plus": self.alpha_plus,
            "delta": self.delta,
            "max_conjugacy_residual": self.max_conjugacy_residual,
            "verdict": self.verdict,
            "rigid": self.rigid,
            "seminorm_sweep": list(self.seminorm_sweep),
            "tol": self.tol,
        }


def rigidity_report(system: IFSystem, p: ProbVector, tol: float = 1e-9,
                    sample_count: int = 256, seed: int = 0,
                    grid_sizes=(1025, 2049, 4097)) -> RigidityReport:
    """Rigidity dichotomy with conjugacy and seminorm evidence.

    The verdict compares the extremal exponents: equality within tol means
    the coordinate change is as smooth as the dimension allows, otherwise
    it is singular.  The Hoelder seminorm of the cdf at the dimension
    exponent is measured across grid refinements as corroboration (bounded
    in the rigid case, growing otherwise).
    """
    ep = alpha_endpoints(system, p)
    rigid = (ep.alpha_plus - ep.alpha_minus) <= tol
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
