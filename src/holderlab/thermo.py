"""Pressure curve and Legendre spectrum of the weight/geometry pair.

Two Birkhoff potentials drive the multifractal analysis: phi, minus the log
branch derivative along the orbit, and psi, the log branch weight.  For each
inverse-temperature beta there is a unique t with vanishing topological
pressure for t*phi + beta*psi; the map beta -> t(beta) is convex and
decreasing, its value at 0 is the attractor dimension, and the Legendre
transform of its negative gives the dimension spectrum of pointwise
regularity exponents of the limit cdf.

Affine systems evaluate the pressure in closed form (the potentials depend
only on the first symbol) and solve over whole arrays of beta and alpha at
once: a Newton climb in t for the roots, and for the Legendre points one
Newton in the pair (beta, g), which finds the minimiser and its root
together.  Other systems fall back to a cylinder sandwich, whose midpoint is
also convex and decreasing in t, and the same Newton climb to its root; the
sandwich's derivative sums are built once per system and level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ifs import IFSystem, ProbVector

_BETA_BRACKET = 60.0
_MAX_LEVEL = 18
# Newton in t climbs monotonically and stops once a step no longer moves t;
# the Legendre Newton in (beta, g) is kept inside a shrinking bracket.  Both
# take a few dozen steps at most, so the cap only stops a solve fed with
# garbage.
_NEWTON_MAX = 200
# the Legendre Newton stops at the first step that moves beta and g by at
# most this and takes it; a step from within 1e-12 of the root leaves only
# rounding error behind
_STEP_TOL = 1e-12


def _log_weights_slopes(system: IFSystem, p: ProbVector):
    if not system.is_affine:
        raise NotImplementedError("equilibrium weights need affine branches")
    lw = np.array([math.log(float(w)) for w in p.weights])
    ls = np.array([math.log(float(b.slope)) for b in system.branches])
    return lw, ls


def pressure(system: IFSystem, p: ProbVector, t: float, beta: float,
             level: int = 12):
    """Topological pressure of t*phi + beta*psi, as a (lower, upper) pair.

    Affine systems are exact and return equal bounds.  Otherwise the
    pressure is sandwiched through cylinder sums at the given depth
    (capped at 18), using the derivative range over each cylinder.
    """
    if system.is_affine:
        lw, ls = _log_weights_slopes(system, p)
        val = _logsumexp(beta * lw - t * ls, ls)[0]
        return val, val
    (dn, _), (up, _) = _sandwich(system, p, level)(t, beta)
    return min(dn, up), max(dn, up)


def _logsumexp(v, x):
    """log sum exp(v), and the average of x under the weights exp(v)."""
    m = float(np.max(v))
    e = np.exp(v - m)
    total = float(np.sum(e))
    return m + math.log(total), float(np.dot(e, x)) / total


def _sandwich(system, p, level):
    """Pressure bounds (t, beta) -> ((value, slope in t), (value, slope))
    from all cylinders of length `level` (capped at 18).

    Each word carries three sums along its prefixes: -log of the largest and
    of the smallest branch derivative over the cylinder (sampled at its ends
    and midpoint), and the log weights.  None depends on t or beta, so they
    are built once and every evaluation is two log-sum-exps over arrays.
    The derivative sums depend on the system alone and are kept on it, one
    pair per level; the weight sums are rebuilt from p on every call.
    The slope of each bound is the Gibbs average of its derivative sum.
    """
    level = min(int(level), _MAX_LEVEL)
    memo = system._sandwich_sums
    if level not in memo:
        memo[level] = _derivative_sums(system, level)
    lo_sum, hi_sum = memo[level]
    syms = system.symbols()
    s = len(syms)
    logp = np.array([math.log(float(p[i])) for i in syms])
    psi_sum = np.zeros(1)
    for k in range(level):
        psi_sum = np.repeat(psi_sum, s) + np.tile(logp, s ** k)

    def bounds(t, beta):
        # phi < 0, so t >= 0 widens one way and t < 0 the other; the sums
        # already fold the sign in, so which bound is lower is left open
        return [tuple(v / level for v in
                      _logsumexp(t * d_sum + beta * psi_sum, d_sum))
                for d_sum in (lo_sum, hi_sum)]

    return bounds


def _derivative_sums(system, level):
    """Read-only arrays of the two derivative sums of every word of length
    `level`, in lexicographic order: the cylinder of (j,) + u is the j-th
    preimage of the cylinder of u, the same preimages, in the same order,
    that `cylinder` applies."""
    syms = system.symbols()
    s = len(syms)
    cyls = [system.open_set]
    lo_sum = hi_sum = np.zeros(1)
    for _ in range(level):
        cyls = [system.branch(j).preimage_interval(lo, hi)
                for j in syms for lo, hi in cyls]
        log_dmax, log_dmin = [], []
        for k, (clo, chi) in enumerate(cyls):
            br = system.branch(syms[k % s])
            pts = (clo, 0.5 * (clo + chi), chi)
            log_dmax.append(math.log(max(br.derivative(x) for x in pts)))
            log_dmin.append(math.log(min(br.derivative(x) for x in pts)))
        lo_sum = np.repeat(lo_sum, s) - np.array(log_dmax)
        hi_sum = np.repeat(hi_sum, s) - np.array(log_dmin)
    lo_sum.flags.writeable = hi_sum.flags.writeable = False
    return lo_sum, hi_sum


def _gibbs(lw, ls, betas):
    """Pressure roots, their first two derivatives and the equilibrium
    weights over a vector of beta (affine systems).

    The pressure is the log-sum-exp of beta*log p_i - t*log a_i, convex and
    strictly decreasing in t.  At t0 = min_i beta*log p_i / log a_i every
    term is >= 0, so the pressure there is >= 0 and Newton from t0 climbs
    monotonically to the root.  With q the Gibbs weights at the root,
    t' = <log p>_q / <log a>_q and t'' = Var_q(log p - t' log a) / <log a>_q.
    Returns (t, t', t'', q).  A beta so large that the root overflows a
    double raises ValueError.
    """
    b = np.asarray(betas, dtype=float).reshape(-1, 1)
    if not np.all(np.isfinite(b)):
        raise ValueError("beta must be finite")
    bl = b * lw
    # a root beyond the largest double overflows here; the finite check
    # below turns that into the one ValueError
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.min(bl / ls, axis=1)
        for _ in range(_NEWTON_MAX):
            v = bl - t[:, None] * ls
            m = v.max(axis=1)
            e = np.exp(v - m[:, None])
            s = e.sum(axis=1)
            step = (m + np.log(s)) * s / (e * ls).sum(axis=1)
            nt = t + step
            move = (step > 0) & (nt != t)
            if not move.any():
                break
            t = np.where(move, nt, t)
    if not np.all(np.isfinite(t)):
        raise ValueError("pressure root overflows a double")
    logq = bl - t[:, None] * ls
    m = logq.max(axis=1, keepdims=True)
    logq -= m + np.log(np.exp(logq - m).sum(axis=1, keepdims=True))
    q = np.exp(logq)
    q /= q.sum(axis=1, keepdims=True)
    qls = (q * ls).sum(axis=1)
    tp = (q * lw).sum(axis=1) / qls
    w = lw - tp[:, None] * ls
    w -= (q * w).sum(axis=1, keepdims=True)
    tpp = (q * w * w).sum(axis=1) / qls
    return t, tp, tpp, q


def solve_pressure_root(system: IFSystem, p: ProbVector, beta: float,
                        level: int = 12) -> float:
    """The unique t with zero pressure at this beta.

    Affine systems run Newton from the left end of the root's bracket to
    float resolution.  Others run the same Newton climb on the sandwich
    midpoint, also convex and decreasing in t, from the first t = -64 * 2^k
    where it is >= 0, until a step no longer moves t.
    """
    if system.is_affine:
        lw, ls = _log_weights_slopes(system, p)
        return float(_gibbs(lw, ls, [beta])[0][0])
    bounds = _sandwich(system, p, level)

    def mid(t):
        (dn, ddn), (up, dup) = bounds(t, beta)
        return 0.5 * (dn + up), 0.5 * (ddn + dup)

    t = -64.0
    while mid(t)[0] < 0:
        t *= 2
    for _ in range(_NEWTON_MAX):
        val, slope = mid(t)
        step = -val / slope
        if not (step > 0 and t + step != t):
            break
        t += step
    return t


def gibbs_weights(system: IFSystem, p: ProbVector, beta: float):
    """Equilibrium branch weights at beta and the slope t'(beta).

    Affine only: the equilibrium state is the Bernoulli measure with weights
    proportional to p_i^beta / a_i^t(beta), and the derivative of the
    pressure root is the ratio of the potential averages under it.
    """
    lw, ls = _log_weights_slopes(system, p)
    _, tp, _, q = _gibbs(lw, ls, [beta])
    return q[0], float(tp[0])


@dataclass(frozen=True)
class Endpoints:
    alpha_minus: float
    alpha_plus: float
    alpha_zero: float
    delta: float
    surrogate_spread: float = 0.0  # disagreement of the large-beta probes


def alpha_endpoints(system: IFSystem, p: ProbVector) -> Endpoints:
    """Extremal and typical regularity exponents plus the attractor dimension.

    For affine systems the endpoints are the extreme per-branch ratios
    log(1/p_i)/log(slope_i); the pressure-slope probes at beta = +-50 and
    +-100 are still evaluated and their spread reported as a sanity check.
    """
    lw, ls = _log_weights_slopes(system, p)
    t, tp, _, _ = _gibbs(lw, ls, [0.0, 50.0, 100.0, -50.0, -100.0])
    spread = max(abs(tp[1] - tp[2]), abs(tp[3] - tp[4]))
    ratios = -lw / ls
    return Endpoints(alpha_minus=float(np.min(ratios)),
                     alpha_plus=float(np.max(ratios)),
                     alpha_zero=float(-tp[0]), delta=float(t[0]),
                     surrogate_spread=float(spread))


class PressureCurve:
    """The pressure root t(beta), its slope t'(beta) and the endpoints of
    one system, with the endpoints computed once."""

    def __init__(self, system: IFSystem, p: ProbVector):
        self.system = system
        self.p = p

    def t(self, beta: float) -> float:
        return solve_pressure_root(self.system, self.p, float(beta))

    def t_prime(self, beta: float) -> float:
        lw, ls = _log_weights_slopes(self.system, self.p)
        return float(_gibbs(lw, ls, [float(beta)])[1][0])

    @functools.cached_property
    def endpoints(self) -> Endpoints:
        return alpha_endpoints(self.system, self.p)

    def samples(self, betas: Sequence[float]):
        """(beta, t, t') rows, solved in one array call (affine only)."""
        lw, ls = _log_weights_slopes(self.system, self.p)
        b = np.asarray(betas, dtype=float).reshape(-1)
        t, tp, _, _ = _gibbs(lw, ls, b)
        return [(float(x), float(y), float(z)) for x, y, z in zip(b, t, tp)]


@dataclass(frozen=True)
class SpectrumPoint:
    alpha: float
    g: float
    beta_argmin: float
    empty: bool = False       # level set provably empty at this exponent
    clamped: bool = False     # solver hit the beta bracket


def spectrum_point(curve: PressureCurve, alpha: float) -> SpectrumPoint:
    """One Legendre point g(alpha) of the curve's system and weights: this
    is `spectrum` at one exponent."""
    return spectrum(curve.system, curve.p, [alpha])[0]


def spectrum(system: IFSystem, p: ProbVector,
             alphas: Sequence[float]) -> list:
    """Legendre points g(alpha) = inf over beta of t(beta) + beta*alpha over
    a grid of exponents, solved for all at once.

    The minimiser solves t'(beta) = -alpha; t' increases with beta, so the
    root is bracketed in [-60, 60].  Exponents more than 1e-9 outside the
    attainable band [min, max] of -log p_i / log a_i get an empty-level-set
    marker, with NaN for g and beta_argmin.  Rigid systems (t' constant)
    tie-break to beta = 0.  An exponent whose minimiser lies at or beyond
    the bracket is marked clamped: beta_argmin is b = +-60 and g is
    t(b) + b*alpha, an upper bound on the Legendre value, not the value.
    A NaN exponent raises ValueError.
    """
    lw, ls = _log_weights_slopes(system, p)
    a = np.asarray(alphas, dtype=float).reshape(-1)
    if np.isnan(a).any():
        raise ValueError("alpha must not be NaN")
    B = _BETA_BRACKET
    (t0, tlo, thi), (tp0, tplo, tphi), _, _ = _gibbs(lw, ls, [0.0, -B, B])

    ratios = -lw / ls
    empty = (a < ratios.min() - 1e-9) | (a > ratios.max() + 1e-9)
    tie = ~empty & (np.abs(tp0 + a) <= 1e-13)
    # alpha at or below the slope reachable at +B, or at or above the one at -B
    at_hi = ~empty & ~tie & (tphi + a <= 0)
    at_lo = ~empty & ~tie & ~at_hi & (tplo + a >= 0)
    inner = ~(empty | tie | at_hi | at_lo)

    beta = np.full(a.shape, np.nan)
    g = np.full(a.shape, np.nan)
    beta[tie], g[tie] = 0.0, t0
    beta[at_hi], g[at_hi] = B, thi + B * a[at_hi]
    beta[at_lo], g[at_lo] = -B, tlo - B * a[at_lo]
    beta[inner], g[inner] = _argmin(lw, ls, a[inner], t0, tp0)
    clamped = at_hi | at_lo
    return [SpectrumPoint(alpha=float(x), g=float(y), beta_argmin=float(z),
                          empty=bool(e), clamped=bool(c))
            for x, y, z, e, c in zip(a, g, beta, empty, clamped)]


def _argmin(lw, ls, a, t0, tp0):
    """beta* with t'(beta*) = -alpha and g = t(beta*) + beta* alpha for each
    alpha whose beta* lies strictly inside (-60, 60), given the root t0 and
    slope tp0 at beta = 0.

    With c = log p + alpha log a, the pair (beta*, g) solves
    F1 = log sum exp(beta c - g log a) = 0, which makes g - beta alpha the
    pressure root, and F2 = <c>_q = 0, which makes t' = -alpha, where q are
    the normalised terms of F1.  One Newton in (beta, g) solves both, from
    (0, t0) on the root, with the Jacobian read off the same q:
    ((<c>, -<log a>), (Var_q c, -Cov_q(c, log a))).

    beta stays in a bracket around beta*: [-60, 60], cut at 0 by the sign
    of tp0 + alpha.  On the root, F2 has the sign of t' + alpha.  Off it,
    the root's g lies within |F1| / min(log a), and moving g that far moves
    F2 by at most that times range(c) range(log a) / 4; a larger |F2| moves
    a bracket end.  A step that leaves the bracket goes to its midpoint
    instead, put on the root by `_gibbs`, whose slope moves a bracket end,
    so a row that keeps leaving halves its bracket.  Each exponent iterates
    on its own until its Newton step is at most _STEP_TOL in beta and in g;
    that step is taken, clipped to the bracket.
    """
    B = _BETA_BRACKET
    c = lw + a[:, None] * ls
    margin = np.ptp(c, axis=1) * np.ptp(ls) / (4 * ls.min())
    beta = np.zeros(a.shape)
    g = np.full(a.shape, t0)
    lo = np.where(tp0 + a < 0, 0.0, -B)
    hi = np.where(tp0 + a > 0, 0.0, B)
    todo = np.arange(a.size)
    for _ in range(_NEWTON_MAX):
        if not todo.size:
            break
        b, h, cc = beta[todo], g[todo], c[todo]
        v = b[:, None] * cc - h[:, None] * ls
        m = v.max(axis=1)
        e = np.exp(v - m[:, None])
        s = e.sum(axis=1)
        q = e / s[:, None]
        f1 = m + np.log(s)
        f2 = (q * cc).sum(axis=1)
        dc = cc - f2[:, None]
        var = (q * dc * dc).sum(axis=1)
        cov = (q * dc * ls).sum(axis=1)
        mls = (q * ls).sum(axis=1)
        sure = np.abs(f2) > np.abs(f1) * margin[todo]
        lo[todo] = np.where(sure & (f2 < 0), b, lo[todo])
        hi[todo] = np.where(sure & (f2 > 0), b, hi[todo])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            det = mls * var - f2 * cov
            db = (f1 * cov - mls * f2) / det
            dh = (var * f1 - f2 * f2) / det
        nb, nh = b + db, h + dh
        last = (np.abs(db) <= _STEP_TOL) & (np.abs(dh) <= _STEP_TOL)
        nb[last] = np.clip(nb[last], lo[todo[last]], hi[todo[last]])
        inside = last | ((nb > lo[todo]) & (nb < hi[todo]) & np.isfinite(nh))
        out = todo[~inside]
        if out.size:
            mid = 0.5 * (lo[out] + hi[out])
            t, tp, _, _ = _gibbs(lw, ls, mid)
            lo[out] = np.where(tp + a[out] < 0, mid, lo[out])
            hi[out] = np.where(tp + a[out] > 0, mid, hi[out])
            nb[~inside], nh[~inside] = mid, t + mid * a[out]
        beta[todo], g[todo] = nb, nh
        todo = todo[~last]
    return beta, g
