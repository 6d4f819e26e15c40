import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holderlab import (
    Branch,
    IFSystem,
    ProbVector,
    PressureCurve,
    affine_system,
    alpha_endpoints,
    gibbs_weights,
    pressure,
    solve_pressure_root,
    spectrum,
    spectrum_experiment,
    spectrum_point,
)
from holderlab.thermo import _gibbs, _log_weights_slopes, _sandwich

LOG43_LOG2 = 0.4150374992788437      # log(4/3)/log 2
LOG2_LOG3 = 0.6309297535714574       # log 2 / log 3
ALPHA_ZERO_QUARTER = 1.2075187496394217
GOLDEN_DELTA = 0.6942419136306172    # root of 2^-d + 4^-d = 1


def test_pressure_closed_form(dyadic, quarter):
    lo, hi = pressure(dyadic, quarter, 1.0, 1.0)
    assert lo == hi == pytest.approx(math.log(0.5), abs=1e-15)


def test_pressure_root_anchors(dyadic, quarter):
    assert abs(solve_pressure_root(dyadic, quarter, 1.0)) <= 1e-13
    assert solve_pressure_root(dyadic, quarter, 0.0) == pytest.approx(1.0, abs=1e-13)
    # beta = 2 pins t to log2(5/8)
    assert solve_pressure_root(dyadic, quarter, 2.0) == pytest.approx(
        math.log(5 / 8) / math.log(2), abs=1e-12)


def test_ternary_dimension():
    system = affine_system((3.0, 3.0), (0.0, -2.0), (0.0, 1.0))
    assert solve_pressure_root(system, ProbVector.of(0.3), 0.0) == pytest.approx(
        LOG2_LOG3, abs=1e-12)


@given(st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=40, deadline=None)
def test_pressure_root_properties(w):
    system = affine_system((2.0, 2.0), (0.0, -1.0), (0.0, 1.0))
    p = ProbVector.of(w)
    # weights sum to one, so beta = 1 always zeroes the pressure
    assert abs(solve_pressure_root(system, p, 1.0)) <= 1e-13
    delta = solve_pressure_root(system, p, 0.0)
    moran = sum(2.0 ** -delta for _ in range(2)) - 1
    assert abs(moran) <= 1e-12


def test_gibbs_weights_sum_and_slope(dyadic, quarter):
    q, t_prime = gibbs_weights(dyadic, quarter, 0.0)
    assert q.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(q, [0.5, 0.5])
    assert -t_prime == pytest.approx(ALPHA_ZERO_QUARTER, abs=1e-13)
    assert t_prime < 0


def test_alpha_endpoints(dyadic, quarter):
    ep = alpha_endpoints(dyadic, quarter)
    assert ep.alpha_minus == pytest.approx(LOG43_LOG2, abs=1e-13)
    assert ep.alpha_plus == pytest.approx(2.0, abs=1e-13)
    assert ep.alpha_zero == pytest.approx(ALPHA_ZERO_QUARTER, abs=1e-12)
    assert ep.delta == pytest.approx(1.0, abs=1e-13)
    assert ep.alpha_minus <= ep.alpha_zero <= ep.alpha_plus
    assert ep.surrogate_spread <= 1e-9


def test_rigid_golden_system():
    u = (math.sqrt(5) - 1) / 2
    system = affine_system((2.0, 4.0), (0.0, -3.0), (0.0, 1.0))
    ep = alpha_endpoints(system, ProbVector.of(u))
    assert ep.alpha_plus - ep.alpha_minus <= 1e-12
    assert ep.delta == pytest.approx(GOLDEN_DELTA, abs=1e-12)
    # constant slope: the Legendre point ties to beta = 0
    pt = spectrum_point(PressureCurve(system, ProbVector.of(u)), ep.alpha_zero)
    assert pt.beta_argmin == 0.0
    assert pt.g == pytest.approx(ep.delta, abs=1e-12)


def test_spectrum_shape(dyadic, quarter):
    curve = PressureCurve(dyadic, quarter)
    ep = curve.endpoints
    pts = spectrum(dyadic, quarter, np.linspace(ep.alpha_minus, ep.alpha_plus, 33))
    gs = np.array([pt.g for pt in pts])
    assert gs.max() <= ep.delta + 1e-12
    assert np.diff(gs, 2).max() <= 1e-8  # concave
    assert gs[0] <= 1e-6 and gs[-1] <= 1e-6
    assert pts[0].clamped and pts[-1].clamped
    mid = spectrum_point(curve, ep.alpha_zero)
    assert mid.g == pytest.approx(ep.delta, abs=1e-12)


def test_spectrum_empty_marker(dyadic, quarter):
    curve = PressureCurve(dyadic, quarter)
    pt = spectrum_point(curve, 3.0)
    assert pt.empty and math.isnan(pt.g)
    pt = spectrum_point(curve, 0.1)
    assert pt.empty


def test_duality_round_trip(dyadic, quarter):
    curve = PressureCurve(dyadic, quarter)
    for beta in np.linspace(-15, 15, 61):
        alpha = -curve.t_prime(beta)
        pt = spectrum_point(curve, alpha)
        assert pt.g == pytest.approx(curve.t(beta) + beta * alpha, abs=1e-9)


def test_pressure_curve_caches(dyadic, quarter):
    curve = PressureCurve(dyadic, quarter)
    t1 = curve.t(2.0)
    assert curve.t(2.0) is t1 or curve.t(2.0) == t1
    rows = curve.samples([0.0, 1.0])
    assert rows[1][1] == pytest.approx(0.0, abs=1e-13)


def test_sandwich_matches_affine_closed_form(quarter):
    # wrap the dyadic branches as opaque callables: the cylinder sandwich
    # must reproduce the affine value since the derivative is constant
    b1 = Branch.custom(fn=lambda x: 2 * x, dfn=lambda x: 2.0,
                       inv=lambda y: y / 2)
    b2 = Branch.custom(fn=lambda x: 2 * x - 1, dfn=lambda x: 2.0,
                       inv=lambda y: (y + 1) / 2)
    system = IFSystem(branches=(b1, b2), open_set=(0.0, 1.0), expansion=2.0)
    lo, hi = pressure(system, quarter, 1.0, 1.0, level=6)
    exact = math.log(0.5)
    assert lo == pytest.approx(exact, abs=1e-12)
    assert hi == pytest.approx(exact, abs=1e-12)
    root = solve_pressure_root(system, quarter, 0.0, level=6)
    assert root == pytest.approx(1.0, abs=1e-9)


def random_affine(k, seed):
    """k full branches of slopes in [k, k + 4] laid side by side on (0, 1),
    with seeded weights of at least about 0.01."""
    rng = np.random.default_rng(seed)
    slopes = rng.uniform(k, k + 4, k)
    starts = np.concatenate([[0.0], np.cumsum(1 / slopes)[:-1]])
    system = affine_system(tuple(slopes), tuple(-slopes * starts), (0.0, 1.0))
    raw = rng.uniform(0.05, 1.0, k)
    return system, ProbVector.of(tuple(raw[:-1] / raw.sum()))


@given(k=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1),
       beta=st.floats(-60.0, 60.0))
@settings(max_examples=60, deadline=None)
def test_array_roots_and_spectrum_properties(k, seed, beta):
    system, p = random_affine(k, seed)
    curve = PressureCurve(system, p)
    h = 1e-4
    (_, t, tp), (_, t_lo, _), (_, t_hi, _) = curve.samples(
        [beta, beta - h, beta + h])
    lo, hi = pressure(system, p, t, beta)
    assert abs(lo) <= 1e-13
    assert t == pytest.approx(solve_pressure_root(system, p, beta),
                              abs=1e-13)
    assert tp == pytest.approx((t_hi - t_lo) / (2 * h), abs=1e-6)

    ep = curve.endpoints
    out_tol = 1e-9
    # the slopes at 0 and at the bracket ends decide the markers
    (_, t0, tp0), (_, t_neg, tp_neg), (_, t_pos, tp_pos) = curve.samples(
        [0.0, -60.0, 60.0])
    alphas = np.concatenate([np.linspace(ep.alpha_minus - 0.05,
                                         ep.alpha_plus + 0.05, 41),
                             [ep.alpha_minus, ep.alpha_plus, ep.alpha_zero,
                              -tp]])
    pts = spectrum(system, p, alphas)
    for a, pt in zip(alphas, pts):
        assert pt.alpha == a
        empty = a < ep.alpha_minus - out_tol or a > ep.alpha_plus + out_tol
        assert pt.empty == empty
        if empty:
            assert math.isnan(pt.g) and math.isnan(pt.beta_argmin)
            assert not pt.clamped
            continue
        tie = abs(tp0 + a) <= 1e-13
        at_pos = not tie and tp_pos + a <= 0
        at_neg = not tie and not at_pos and tp_neg + a >= 0
        assert pt.clamped == (at_pos or at_neg)
        b = pt.beta_argmin
        if tie:
            assert b == 0.0 and pt.g == t0
        elif at_pos:
            assert b == 60.0 and pt.g == t_pos + 60.0 * a
        elif at_neg:
            assert b == -60.0 and pt.g == t_neg - 60.0 * a
        else:
            assert -60.0 < b < 60.0
            assert abs(curve.t_prime(b) + a) <= 1e-12
            assert pt.g == pytest.approx(curve.t(b) + b * a, abs=1e-12)
    # spectrum_point is the one-exponent case of the same solve
    for a, pt in zip(alphas[-4:], pts[-4:]):
        one = spectrum_point(curve, a)
        assert (one.empty, one.clamped) == (pt.empty, pt.clamped)
        assert one.g == pytest.approx(pt.g, abs=1e-12)



def same(x, y):
    """x == y, with NaN equal to NaN."""
    return x == y or (math.isnan(x) and math.isnan(y))


@given(k=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1),
       betas=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=6),
       spread=st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_batched_solves_are_row_independent(k, seed, betas, spread):
    # both solvers iterate every row on its own, so a batch gives every row
    # the bits it gets alone: spectrum_experiment solves all betas at once
    system, p = random_affine(k, seed)
    lw, ls = _log_weights_slopes(system, p)
    betas = betas + [0.0, betas[0]]
    batch = _gibbs(lw, ls, betas)
    for i, beta in enumerate(betas):
        alone = _gibbs(lw, ls, [beta])
        for got, want in zip(batch, alone):
            assert np.array_equal(got[i], want[0])

    curve = PressureCurve(system, p)
    ep = curve.endpoints
    alphas = [ep.alpha_minus + u * (ep.alpha_plus - ep.alpha_minus)
              for u in spread] + [ep.alpha_minus, ep.alpha_zero]
    alphas.append(alphas[0])
    for pt, a in zip(spectrum(system, p, alphas), alphas):
        one = spectrum_point(curve, a)
        assert (pt.empty, pt.clamped) == (one.empty, one.clamped)
        assert all(same(x, y) for x, y in
                   zip((pt.alpha, pt.g, pt.beta_argmin),
                       (one.alpha, one.g, one.beta_argmin)))


def bernoulli_g(system, p, alpha):
    """Two branches: the Legendre point's equilibrium state is the
    Bernoulli measure (q, 1 - q) with <log p + alpha log a>_q = 0, and g is
    its entropy over its Lyapunov exponent."""
    (lp1, lp2), (la1, la2) = _log_weights_slopes(system, p)
    q = -(lp2 + alpha * la2) / ((lp1 - lp2) + alpha * (la1 - la2))
    # the clamp only undoes rounding at the spectrum's endpoints, where q
    # can come out as -0.0 or a hair past 1; there 0 log 0 = 0
    q = min(max(q, 0.0), 1.0)
    entropy = ((-q * math.log(q) if q > 0 else 0.0)
               - ((1 - q) * math.log1p(-q) if q < 1 else 0.0))
    return entropy / (q * la1 + (1 - q) * la2)


@given(seed=st.integers(0, 2 ** 32 - 1),
       spread=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
@example(seed=4447, spread=[0.9999999999999999])  # alpha_plus: q = -0.0
@settings(max_examples=60, deadline=None)
def test_two_branch_spectrum_matches_closed_form(seed, spread):
    system, p = random_affine(2, seed)
    ep = alpha_endpoints(system, p)
    alphas = [ep.alpha_minus + u * (ep.alpha_plus - ep.alpha_minus)
              for u in spread] + [ep.alpha_zero]
    for a, pt in zip(alphas, spectrum(system, p, alphas)):
        if pt.clamped:
            continue
        assert pt.g == pytest.approx(bernoulli_g(system, p, a), abs=1e-12)


def legacy_spectrum(system, p, alphas):
    """The nested Legendre solve, kept as a reference: Newton in beta on
    t'(beta) = -alpha inside a bisection bracket, re-solving every root
    from the cold start.  Returns (g, beta, empty, tie, clamped) per alpha."""
    lw, ls = _log_weights_slopes(system, p)
    ep = alpha_endpoints(system, p)
    a = np.asarray(alphas, dtype=float)
    (t0, tlo, thi), (tp0, tplo, tphi), _, _ = _gibbs(lw, ls, [0.0, -60.0,
                                                              60.0])
    empty = (a < ep.alpha_minus - 1e-9) | (a > ep.alpha_plus + 1e-9)
    tie = ~empty & (np.abs(tp0 + a) <= 1e-13)
    at_hi = ~empty & ~tie & (tphi + a <= 0)
    at_lo = ~empty & ~tie & ~at_hi & (tplo + a >= 0)
    inner = ~(empty | tie | at_hi | at_lo)
    beta, g = np.full(a.shape, np.nan), np.full(a.shape, np.nan)
    beta[tie], g[tie] = 0.0, t0
    beta[at_hi], g[at_hi] = 60.0, thi + 60.0 * a[at_hi]
    beta[at_lo], g[at_lo] = -60.0, tlo - 60.0 * a[at_lo]
    ai = a[inner]
    b = np.zeros(ai.shape)
    lo, hi = np.full(ai.shape, -60.0), np.full(ai.shape, 60.0)
    todo = np.arange(ai.size)
    for _ in range(200):
        if not todo.size:
            break
        bt = b[todo]
        _, tp, tpp, _ = _gibbs(lw, ls, bt)
        f = tp + ai[todo]
        lo[todo] = np.where(f < 0, bt, lo[todo])
        hi[todo] = np.where(f > 0, bt, hi[todo])
        with np.errstate(divide="ignore", invalid="ignore"):
            nb = bt - f / tpp
        ok = (nb > lo[todo]) & (nb < hi[todo])
        nb = np.where(ok, nb, 0.5 * (lo[todo] + hi[todo]))
        nb[f == 0] = bt[f == 0]
        b[todo] = nb
        todo = todo[np.abs(nb - bt) > 1e-12]
    beta[inner] = b
    g[inner] = _gibbs(lw, ls, b)[0] + b * ai
    return list(zip(g, beta, empty, tie, at_hi | at_lo))


def skewed_affine(k, seed):
    """k full branches of slopes from 1.05 to 200 on (0, 1), weights from
    about 6e-6 up: the Legendre Newton leaves its bracket on such systems
    and falls back to bisection."""
    rng = np.random.default_rng(seed)
    slopes = np.exp(rng.uniform(math.log(1.05), math.log(200.0), k))
    starts = np.concatenate([[0.0], np.cumsum(1 / slopes)[:-1]])
    starts /= max(1.0, float(np.sum(1 / slopes)))
    system = affine_system(tuple(slopes), tuple(-slopes * starts), (0.0, 1.0))
    raw = np.exp(rng.uniform(-12.0, 0.0, k))
    return system, ProbVector.of(tuple(raw[:-1] / raw.sum()))


@given(k=st.integers(3, 4), seed=st.integers(0, 2 ** 32 - 1),
       skewed=st.booleans(),
       spread=st.lists(st.floats(-0.05, 1.05), min_size=1, max_size=12),
       near=st.lists(st.floats(1e-12, 1e-3), max_size=4))
@settings(max_examples=80, deadline=None)
# Newton steps that leave the bracket: without the bisection fallback beta
# runs off to about 1e279 at some of these exponents
@example(k=4, seed=0, skewed=True, spread=[u / 20 for u in range(21)],
         near=[])
@example(k=3, seed=178, skewed=True, spread=[u / 20 for u in range(21)],
         near=[])
def test_spectrum_matches_nested_solve(k, seed, skewed, spread, near):
    system, p = (skewed_affine if skewed else random_affine)(k, seed)
    ep = alpha_endpoints(system, p)
    width = ep.alpha_plus - ep.alpha_minus
    alphas = ([ep.alpha_minus + u * width for u in spread]
              + [ep.alpha_minus + d for d in near]
              + [ep.alpha_plus - d for d in near] + [ep.alpha_zero])
    t0 = _gibbs(*_log_weights_slopes(system, p), [0.0])[0][0]
    for pt, (g, beta, empty, tie, clamped) in zip(
            spectrum(system, p, alphas), legacy_spectrum(system, p, alphas)):
        assert (pt.empty, pt.clamped) == (empty, clamped)
        assert (pt.beta_argmin == 0.0 and pt.g == t0) == tie
        if empty:
            assert math.isnan(pt.g) and math.isnan(pt.beta_argmin)
        else:
            assert pt.g == pytest.approx(g, abs=1e-12)
            assert -60.0 <= pt.beta_argmin <= 60.0


@given(k=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1),
       betas=st.lists(st.floats(-200.0, 200.0), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_spectrum_experiment_g_is_the_legendre_value(k, seed, betas):
    # beta minimises t(b) + b alpha at alpha = -t'(beta), so no bracket
    # clamps g, not even beyond +-60
    system, p = random_affine(k, seed)
    betas = betas + [75.0, -90.0]
    t, tp, _, _ = _gibbs(*_log_weights_slopes(system, p), betas)
    rows = spectrum_experiment(system, p, betas, word_len=2, count=1)
    for row, beta, tb, tpb in zip(rows, betas, t, tp):
        assert row["alpha_pred"] == -tpb
        assert row["g"] == tb - beta * tpb


def counting_bent_system():
    """bent_system, with a count of its derivative calls."""
    calls = [0]
    system = bent_system()

    def counted(br):
        def dfn(x):
            calls[0] += 1
            return br.dfn(x)
        return Branch.custom(fn=br.fn, dfn=dfn, inv=br.inv)

    system = IFSystem(branches=tuple(map(counted, system.branches)),
                      open_set=system.open_set, expansion=system.expansion)
    return system, calls


def test_sandwich_builds_each_level_once():
    system, calls = counting_bent_system()
    per_level = {}
    for level in (3, 5):
        before = calls[0]
        _sandwich(system, ProbVector.of(0.3), level)
        per_level[level] = calls[0] - before
        assert per_level[level] > 0
    # other weights, betas and root solves reuse the derivative sums
    before = calls[0]
    for level in (3, 5):
        _sandwich(system, ProbVector.of(0.7), level)
        for beta in (0.0, 1.0, 2.5):
            solve_pressure_root(system, ProbVector.of(0.7), beta, level=level)
        pressure(system, ProbVector.of(0.7), 0.5, 1.0, level=level)
    assert calls[0] == before
    # and give the bits of a fresh build
    for level in (3, 5):
        fresh, fresh_calls = counting_bent_system()
        for w in (0.3, 0.7):
            kept = _sandwich(system, ProbVector.of(w), level)
            new = _sandwich(fresh, ProbVector.of(w), level)
            for t, beta in ((0.0, 0.0), (0.9, 1.0), (-1.5, 2.5)):
                assert kept(t, beta) == new(t, beta)
        assert fresh_calls[0] == per_level[level]


def bent_system():
    """A quadratic left branch (slope 1.5 to 2.5) beside the branch 2x - 1,
    both as callables, so the pressure takes the cylinder sandwich."""
    left = Branch.custom(fn=lambda x: 2.5 * x - 0.5 * x * x,
                         dfn=lambda x: 2.5 - x,
                         inv=lambda y: 2.5 - math.sqrt(6.25 - 2.0 * y))
    right = Branch.custom(fn=lambda x: 2.0 * x - 1.0, dfn=lambda x: 2.0,
                          inv=lambda y: (y + 1.0) / 2.0)
    return IFSystem(branches=(left, right), open_set=(0.0, 1.0),
                    expansion=1.5)


@pytest.mark.parametrize("w", [0.2, 0.55, 0.8])
def test_nonaffine_root_matches_bisection(w):
    system, p, level = bent_system(), ProbVector.of(w), 5
    for beta in (-2.0, 0.0, 1.0, 2.5):
        def mid(t):
            return 0.5 * sum(pressure(system, p, t, beta, level=level))
        lo, hi = -64.0, 64.0
        assert mid(lo) >= 0 > mid(hi)
        for _ in range(200):
            m = 0.5 * (lo + hi)
            lo, hi = (m, hi) if mid(m) >= 0 else (lo, m)
        root = solve_pressure_root(system, p, beta, level=level)
        assert root == pytest.approx(lo, abs=1e-13)


@pytest.mark.xfail(strict=True, reason="known defect: the sandwich takes "
                   "each symbol's derivative on the cylinder of the whole "
                   "word, not of its suffix, so its bounds do not nest "
                   "(ROADMAP, known defects)")
def test_nonaffine_pressure_bounds_nest():
    # the attractor of bent_system has a gap, (0.4384, 0.5), so its
    # dimension t(0) lies below 1, and true bounds on the root of the
    # pressure nest as the level grows
    system, p = bent_system(), ProbVector.of(0.3)
    roots = []
    for level in (4, 7, 10):
        bounds = _sandwich(system, p, level)
        ends = []
        for j in (0, 1):
            lo, hi = 0.0, 2.0
            for _ in range(60):
                m = 0.5 * (lo + hi)
                lo, hi = (m, hi) if bounds(m, 0.0)[j][0] >= 0 else (lo, m)
            ends.append(lo)
        roots.append(sorted(ends))
    for (lo, hi), (inner_lo, inner_hi) in zip(roots, roots[1:]):
        assert lo <= inner_lo <= inner_hi <= hi, roots
    assert solve_pressure_root(system, p, 0.0) < 1
