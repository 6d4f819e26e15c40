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

from .ifs import IFSystem, OutsideHullError, ProbVector, _walk, \
    affine_system, attractor_hull, hull_preimages, pi_approx
from .thermo import alpha_endpoints
from .transition import GridFunction, cdf_values, holder_seminorm

# rejected draws conjugacy_residual allows per requested sample, plus a
# fixed allowance
REJECTS_PER_SAMPLE, REJECTS_ALLOWED = 10, 100


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


def phi(system: IFSystem, p: ProbVector, x, tol: float = 1e-12):
    """Linear-model coordinate of a point, via its symbolic coding.

    The cdf walk codes the point deep enough that its coding cylinder in
    the linear model, [acc, acc + mass], has diameter at most tol, and the
    cylinder midpoint is returned.  A point inside an attractor gap gets
    the exact common value of the two bracketing codings.  Exact inputs
    (rational weights and coordinate) return exact rationals.
    """
    pmax = max(float(w) for w in p.weights)
    depth = max(8, math.ceil(math.log(tol) / math.log(pmax)))
    a, b = attractor_hull(system)
    if x < a or x > b:
        raise OutsideHullError(f"{x} outside attractor hull [{a}, {b}]")
    left = [p.left_mass(sym) for sym in range(1, len(p) + 2)]
    acc, mass = (Fraction(0), Fraction(1)) if p.is_rational else (0.0, 1.0)
    for _, sym, gap in _walk(system, x, depth, hull_preimages(system)):
        acc += mass * left[sym - 1]
        if gap:
            return acc
        mass *= p[sym]
    return acc + mass / 2


def conjugacy_residual(system: IFSystem, p: ProbVector, sample_count: int,
                       seed: int = 0, tol: float = 1e-10,
                       exclusion: float = 1e-6) -> float:
    """Largest violation of the conjugacy identity over sampled points.

    Points come from codings drawn uniformly at random; the expanding map
    applies the branch of smallest index whose preimage interval contains
    the point, and the identity compares the coordinate of the image with
    the linear branch applied to the coordinate of the point.  Points whose
    first twelve orbit steps pass within `exclusion` of a preimage-interval
    endpoint are rejected: there two codings collide and the identity only
    holds off that countable set.  An `exclusion` too wide for the system
    rejects (nearly) every draw, so the sampler raises ValueError once it
    has rejected more than 10 * sample_count + 100 draws.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    lin = linear_model(p)
    pre = hull_preimages(system)
    syms = system.symbols()
    word_len = 48

    def first_symbol(x):
        """The first coding symbol of x, or None for a rejected point."""
        first = None
        for y, sym, gap in _walk(system, x, 12, pre):
            if gap:
                break  # no endpoint collision ahead
            u, v = pre[sym - 1]
            if min(y - u, v - y) < exclusion:
                return None
            first = first or sym
        return first

    worst = 0.0
    produced = rejected = 0
    while produced < sample_count:
        word = tuple(int(s) for s in rng.choice(syms, size=word_len))
        x = pi_approx(system, word)[0]
        sym = first_symbol(x)
        if sym is None:
            rejected += 1
            if rejected > REJECTS_PER_SAMPLE * sample_count + REJECTS_ALLOWED:
                raise ValueError(f"exclusion {exclusion} rejected {rejected} "
                                 f"draws for {produced} samples")
            continue
        produced += 1
        fx = system.branch(sym)(x)
        lhs = phi(system, p, fx, tol=tol)
        rhs = lin.branch(sym)(phi(system, p, x, tol=tol))
        worst = max(worst, abs(float(lhs) - float(rhs)))
    return worst


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

    a, b = attractor_hull(system)
    pad = 0.25 * (b - a)
    sweep = []
    for size in grid_sizes:
        nodes = np.linspace(a - pad, b + pad, size)
        vals = cdf_values(system, p, nodes, tol=1e-14)
        h = GridFunction(nodes, vals, boundary_left=0.0, boundary_right=1.0)
        sweep.append(holder_seminorm(h, ep.delta, mode="adjacent"))
    return RigidityReport(alpha_minus=ep.alpha_minus,
                          alpha_plus=ep.alpha_plus, delta=ep.delta,
                          max_conjugacy_residual=residual,
                          verdict="rigid" if rigid else "non-rigid",
                          seminorm_sweep=tuple(sweep), tol=tol)
