import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    spectrum_point,
)
from holderlab.thermo import _gibbs, _log_weights_slopes

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
    pts = spectrum(dyadic, quarter, np.linspace(ep.alpha_minus, ep.alpha_plus, 33),
                   curve=curve)
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
    pts = spectrum(system, p, alphas, curve=curve)
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
    for pt, a in zip(spectrum(system, p, alphas, curve), alphas):
        one = spectrum_point(curve, a)
        assert (pt.empty, pt.clamped) == (one.empty, one.clamped)
        assert all(same(x, y) for x, y in
                   zip((pt.alpha, pt.g, pt.beta_argmin),
                       (one.alpha, one.g, one.beta_argmin)))


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
