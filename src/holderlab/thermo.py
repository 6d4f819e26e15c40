"""Pressure curve and Legendre spectrum of the weight/geometry pair.

Two Birkhoff potentials drive the multifractal analysis: phi, minus the log
branch derivative along the orbit, and psi, the log branch weight.  For each
inverse-temperature beta there is a unique t with vanishing topological
pressure for t*phi + beta*psi; the map beta -> t(beta) is convex and
decreasing, its value at 0 is the attractor dimension, and the Legendre
transform of its negative gives the dimension spectrum of pointwise
regularity exponents of the limit cdf.

Affine systems evaluate the pressure in closed form (the potentials depend
only on the first symbol) and solve for roots and Legendre points over whole
arrays of beta and alpha at once; other systems fall back to a cylinder
sandwich and a bracketed scalar root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .ifs import IFSystem, ProbVector

_BETA_BRACKET = 60.0
_MAX_LEVEL = 18
_EPS = float(np.finfo(float).eps)
# Newton in t climbs monotonically and stops once a step no longer moves t;
# Newton in beta is kept inside a shrinking bracket.  Both take a few dozen
# steps at most, so the cap only stops a solve fed with garbage.
_NEWTON_MAX = 200
_BRENT_MAX = 100
# Newton in beta stops at the first step shorter than this and takes it; a
# step from within 1e-12 of the root leaves only rounding error behind
_BETA_XTOL = 1e-12


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
        val = _logsumexp(beta * lw - t * ls)
        return val, val
    return _sandwich(system, p, level)(t, beta)


def _logsumexp(v):
    m = float(np.max(v))
    return m + math.log(float(np.sum(np.exp(v - m))))


def _sandwich(system, p, level):
    """Pressure bounds (t, beta) -> (lower, upper) from all cylinders of
    length `level` (capped at 18).

    Each word carries three sums along its prefixes: -log of the largest and
    of the smallest branch derivative over the cylinder (sampled at its ends
    and midpoint), and the log weights.  None depends on t or beta, so they
    are built once and every evaluation is two log-sum-exps over arrays.
    Words are in lexicographic order, and the cylinder of (j,) + u is the
    j-th preimage of the cylinder of u: the same preimages, in the same
    order, that `cylinder` applies.
    """
    level = min(int(level), _MAX_LEVEL)
    syms = system.symbols()
    s = len(syms)
    logp = np.array([math.log(float(p[i])) for i in syms])
    cyls = [system.open_set]
    lo_sum = hi_sum = psi_sum = np.zeros(1)
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
        psi_sum = np.repeat(psi_sum, s) + np.tile(logp, len(cyls) // s)

    def bounds(t, beta):
        # phi < 0, so t >= 0 widens one way and t < 0 the other; the sums
        # already fold the sign in, so just aggregate
        up = _logsumexp(t * hi_sum + beta * psi_sum) / level
        dn = _logsumexp(t * lo_sum + beta * psi_sum) / level
        return min(dn, up), max(dn, up)

    return bounds


def _brentq(f, a: float, b: float, xtol: float) -> float:
    """Root of f in [a, b], where f(a) and f(b) differ in sign.

    Brent's (1973) method, step for step as scipy's brentq runs it: the
    bracket [xcur, xblk] keeps the smaller |f| at xcur; a step interpolates
    (secant, or inverse quadratic through three points) when that shrinks
    the bracket fast enough and bisects otherwise.  Stops once half the
    bracket is below (xtol + 4*eps*|xcur|)/2.
    """
    if not xtol > 0:
        raise ValueError("xtol must be positive")
    rtol = 4 * _EPS
    xpre, xcur = float(a), float(b)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAX):
        if fpre != 0 and fcur != 0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"no convergence in {_BRENT_MAX} iterations")


def _gibbs(lw, ls, betas, t=None):
    """Pressure roots, their first two derivatives and the equilibrium
    weights over a vector of beta (affine systems).

    The pressure is the log-sum-exp of beta*log p_i - t*log a_i, convex and
    strictly decreasing in t.  At t0 = min_i beta*log p_i / log a_i every
    term is >= 0, so the pressure there is >= 0 and Newton from t0 climbs
    monotonically to the root.  With q the Gibbs weights at the root,
    t' = <log p>_q / <log a>_q and t'' = Var_q(log p - t' log a) / <log a>_q.
    Returns (t, t', t'', q); pass t to skip the root solve.
    """
    b = np.asarray(betas, dtype=float).reshape(-1, 1)
    if not np.all(np.isfinite(b)):
        raise ValueError("beta must be finite")
    bl = b * lw
    if t is None:
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
    else:
        t = np.asarray(t, dtype=float).reshape(-1)
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
                        tol: float = 1e-15, level: int = 12) -> float:
    """The unique t with zero pressure at this beta.

    Affine systems run Newton from the left end of the root's bracket to
    float resolution.  Others find the root of the sandwich midpoint by a
    bracketed Brent solve to absolute tolerance `tol`.
    """
    if system.is_affine:
        lw, ls = _log_weights_slopes(system, p)
        return float(_gibbs(lw, ls, [beta])[0][0])
    bounds = _sandwich(system, p, level)
    f = lambda t: 0.5 * sum(bounds(t, beta))
    lo, hi = -64.0, 64.0
    while f(lo) < 0:
        lo *= 2
    while f(hi) > 0:
        hi *= 2
    return _brentq(f, lo, hi, xtol=tol)


def gibbs_weights(system: IFSystem, p: ProbVector, beta: float,
                  t: Optional[float] = None):
    """Equilibrium branch weights at beta and the slope t'(beta).

    Affine only: the equilibrium state is the Bernoulli measure with weights
    proportional to p_i^beta / a_i^t(beta), and the derivative of the
    pressure root is the ratio of the potential averages under it.
    """
    lw, ls = _log_weights_slopes(system, p)
    _, tp, _, q = _gibbs(lw, ls, [beta], t=None if t is None else [t])
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
    """Memoising wrapper around the pressure root and its slope.

    The cache is append-only; concurrent readers are safe under the usual
    single-interpreter dict guarantees.
    """

    def __init__(self, system: IFSystem, p: ProbVector):
        self.system = system
        self.p = p
        self._t: dict = {}
        self._tp: dict = {}
        self._endpoints: Optional[Endpoints] = None

    def t(self, beta: float) -> float:
        b = float(beta)
        if b not in self._t:
            self._t[b] = solve_pressure_root(self.system, self.p, b)
        return self._t[b]

    def t_prime(self, beta: float) -> float:
        b = float(beta)
        if b not in self._tp:
            _, tp = gibbs_weights(self.system, self.p, b, t=self.t(b))
            self._tp[b] = tp
        return self._tp[b]

    @property
    def endpoints(self) -> Endpoints:
        if self._endpoints is None:
            self._endpoints = alpha_endpoints(self.system, self.p)
        return self._endpoints

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


def spectrum_point(curve: PressureCurve, alpha: float,
                   out_tol: float = 1e-9) -> SpectrumPoint:
    """One Legendre point g(alpha) = inf over beta of t(beta) + beta*alpha.

    The minimiser solves t'(beta) = -alpha; t' increases with beta, so the
    root is bracketed in [-60, 60] and clamped to the bracket when alpha
    sits within out_tol of an endpoint.  Exponents strictly outside the
    attainable band give an empty-level-set marker.  Rigid systems (t'
    constant) tie-break to beta = 0.  This is `spectrum` at one exponent.
    """
    return _legendre(curve, [alpha], out_tol)[0]


def spectrum(system: IFSystem, p: ProbVector, alphas: Sequence[float],
             curve: Optional[PressureCurve] = None) -> list:
    """Legendre spectrum over a grid of exponents, solved for all at once.

    Each point follows the rules of `spectrum_point`.
    """
    if curve is None:
        curve = PressureCurve(system, p)
    return _legendre(curve, alphas, 1e-9)


def _legendre(curve: PressureCurve, alphas, out_tol: float) -> list:
    ep = curve.endpoints
    lw, ls = _log_weights_slopes(curve.system, curve.p)
    a = np.asarray(alphas, dtype=float).reshape(-1)
    if np.isnan(a).any():
        raise ValueError("alpha must not be NaN")
    B = _BETA_BRACKET
    (t0, tlo, thi), (tp0, tplo, tphi), _, _ = _gibbs(lw, ls, [0.0, -B, B])

    empty = (a < ep.alpha_minus - out_tol) | (a > ep.alpha_plus + out_tol)
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
    beta[inner], g[inner] = _argmin(lw, ls, a[inner])
    clamped = at_hi | at_lo
    return [SpectrumPoint(alpha=float(x), g=float(y), beta_argmin=float(z),
                          empty=bool(e), clamped=bool(c))
            for x, y, z, e, c in zip(a, g, beta, empty, clamped)]


def _argmin(lw, ls, a):
    """beta* with t'(beta*) = -alpha and g = t(beta*) + beta* alpha for each
    alpha whose root lies strictly inside (-60, 60).

    Newton in beta (t'' >= 0 is the slope of t') from beta = 0, kept inside
    the bracket: every evaluation moves one bracket end, and a step that
    leaves the bracket is replaced by bisection.  Each exponent iterates on
    its own until a step is below _BETA_XTOL; that last step is taken.
    """
    beta = np.zeros(a.shape)
    lo = np.full(a.shape, -_BETA_BRACKET)
    hi = np.full(a.shape, _BETA_BRACKET)
    todo = np.arange(a.size)
    for _ in range(_NEWTON_MAX):
        if not todo.size:
            break
        b = beta[todo]
        _, tp, tpp, _ = _gibbs(lw, ls, b)
        f = tp + a[todo]
        lo[todo] = np.where(f < 0, b, lo[todo])
        hi[todo] = np.where(f > 0, b, hi[todo])
        with np.errstate(divide="ignore", invalid="ignore"):
            nb = b - f / tpp
        inside = (nb > lo[todo]) & (nb < hi[todo])
        nb = np.where(inside, nb, 0.5 * (lo[todo] + hi[todo]))
        nb[f == 0] = b[f == 0]
        beta[todo] = nb
        todo = todo[np.abs(nb - b) > _BETA_XTOL]
    t = _gibbs(lw, ls, beta)[0]
    return beta, t + beta * a
