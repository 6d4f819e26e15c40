import math
from fractions import Fraction

import numpy as np
import pytest

from holderlab import (
    Branch,
    IFSystem,
    OutsideHullError,
    ProbVector,
    affine_system,
    cdf_values,
    conjugacy_residual,
    linear_model,
    phi,
    rigidity_report,
    validate,
    validated,
)
from holderlab import conjugacy
from holderlab.ifs import _walk, hull_preimages, pi_approx


def test_linear_model_halves():
    lm = linear_model(ProbVector.of(0.5))
    assert [b.slope for b in lm.branches] == [2.0, 2.0]
    assert [b.intercept for b in lm.branches] == [0.0, -1.0]


def test_linear_model_quarter():
    lm = linear_model(ProbVector.of(0.25))
    assert lm.branches[0].slope == pytest.approx(4.0)
    assert lm.branches[1].slope == pytest.approx(4 / 3)
    assert lm.branches[1].intercept == pytest.approx(-1 / 3)


def test_linear_model_rational_exact():
    lm = linear_model(ProbVector((Fraction(1, 4), Fraction(3, 4))))
    assert lm.branches[1].slope == Fraction(4, 3)
    assert lm.branches[1].intercept == Fraction(-1, 3)
    assert lm.is_rational


def test_linear_model_always_osc():
    for free in [(0.5,), (0.25,), (0.1, 0.2)]:
        p = ProbVector.of(*free)
        rep = validate(linear_model(p), p)
        assert rep.osc and rep.ok


def test_phi_examples(dyadic, cantor, quarter):
    assert phi(dyadic, quarter, 0.0) == 0.0
    assert phi(dyadic, quarter, 0.5) == 0.25
    assert phi(cantor, ProbVector.of(0.5), 1.0) == 1.0
    for x in (-0.1, 1.5):
        with pytest.raises(OutsideHullError):
            phi(dyadic, quarter, x)


def test_phi_gap_point_exact(cantor, quarter):
    # any point of the middle-third gap maps to the common boundary value
    assert phi(cantor, quarter, 0.4) == 0.25
    assert phi(cantor, quarter, 0.65) == 0.25


def test_phi_rational_exact(quarter):
    system = affine_system((Fraction(2), Fraction(2)),
                           (Fraction(0), Fraction(-1)),
                           (Fraction(0), Fraction(1)))
    p = ProbVector((Fraction(1, 4), Fraction(3, 4)))
    val = phi(system, p, Fraction(1, 2))
    assert isinstance(val, Fraction)
    assert abs(val - Fraction(1, 4)) < Fraction(1, 10 ** 9)


def test_phi_matches_cdf(dyadic, quarter):
    xs = np.random.default_rng(7).uniform(0.0, 1.0, 300)
    cdf = cdf_values(dyadic, quarter, xs, tol=1e-13)
    for x, t in zip(xs, cdf):
        assert phi(dyadic, quarter, float(x)) == pytest.approx(t, abs=2e-12)


def test_phi_monotone(dyadic, quarter):
    xs = np.sort(np.random.default_rng(8).uniform(0.0, 1.0, 100))
    vals = [phi(dyadic, quarter, float(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_conjugacy_residuals(dyadic, cantor, quarter, half):
    assert conjugacy_residual(dyadic, half, 200, seed=3) <= 1e-10
    assert conjugacy_residual(dyadic, quarter, 200, seed=3) <= 1e-9
    assert conjugacy_residual(cantor, quarter, 200, seed=3) <= 1e-9


def test_conjugacy_residual_gives_up_on_wide_exclusion(dyadic, cantor,
                                                      quarter):
    # every dyadic point lies within 0.5 of a preimage endpoint; on the
    # Cantor system 0.05 rejects nearly every draw
    with pytest.raises(ValueError, match="rejected"):
        conjugacy_residual(dyadic, quarter, 4, exclusion=0.5)
    with pytest.raises(ValueError, match="rejected"):
        conjugacy_residual(cantor, quarter, 50, exclusion=0.05)


THREE = affine_system((3.0, 3.0, 3.0), (0.0, -1.0, -2.0), (0.0, 1.0))


def _one_word_at_a_time(system, count, seed, exclusion):
    """Sample points and first symbols drawn one word per call, each point
    its word's pi_approx and checked on the scalar coding walk."""
    rng = np.random.Generator(np.random.Philox(seed))
    pre = hull_preimages(system)
    xs, syms = [], []
    while len(xs) < count:
        word = tuple(int(s) for s in rng.choice(system.symbols(), size=48))
        x = pi_approx(system, word)[0]
        first = None
        for y, sym, gap in _walk(system._coding, x, 12):
            if gap:
                break
            u, v = pre[sym - 1]
            if min(y - u, v - y) < exclusion:
                first = None
                break
            first = first or sym
        if first is not None:
            xs.append(x)
            syms.append(first)
    return np.array(xs), np.array(syms)


@pytest.mark.parametrize("exclusion", [1e-6, 0.02])
@pytest.mark.parametrize("name", ["dyadic", "cantor", "three"])
def test_batched_samples_match_one_word_draws(monkeypatch, dyadic, cantor,
                                              name, exclusion):
    system = {"dyadic": dyadic, "cantor": cantor, "three": THREE}[name]
    ref_x, ref_sym = _one_word_at_a_time(system, 60, 11, exclusion)
    # small chunks split the draws across many rng calls
    monkeypatch.setattr(conjugacy, "SAMPLE_CHUNK", 7)
    chunks = list(conjugacy._samples(system, 60, 11, exclusion))
    assert all(x.size <= 7 for x, _ in chunks)
    x = np.concatenate([c[0] for c in chunks])
    sym = np.concatenate([c[1] for c in chunks])
    assert np.array_equal(sym, ref_sym)
    np.testing.assert_allclose(x, ref_x, rtol=0, atol=1e-15)


def test_residual_does_not_depend_on_chunk_size(monkeypatch, cantor,
                                                 quarter):
    whole = conjugacy_residual(cantor, quarter, 300, seed=5)
    monkeypatch.setattr(conjugacy, "SAMPLE_CHUNK", 16)
    assert conjugacy_residual(cantor, quarter, 300, seed=5) == whole


def test_residual_is_coding_agreement_not_truncation(dyadic, half):
    # phi's depth at the default tol is below the 48 symbols of a sample
    # word; comparing phi_{d-1}(f x) with L(phi_d(x)) leaves rounding only
    assert conjugacy_residual(dyadic, half, 400, seed=3) <= 1e-14
    assert conjugacy_residual(THREE, ProbVector.of(0.25, 0.375), 400,
                              seed=3) <= 1e-14


def test_residual_rational_system():
    system = affine_system((Fraction(2), Fraction(2)),
                           (Fraction(0), Fraction(-1)),
                           (Fraction(0), Fraction(1)))
    p = ProbVector((Fraction(1, 4), Fraction(3, 4)))
    assert conjugacy_residual(system, p, 400, seed=3) <= 1e-14


def _quadratic_system():
    # left branch 2.5x - 0.5x^2 (slope 1.5 to 2.5 on (0, 1)), right 2x - 1
    quad = Branch.custom(lambda x: 2.5 * x - 0.5 * x * x,
                         lambda x: 2.5 - x,
                         lambda y: (5.0 - math.sqrt(25.0 - 8.0 * y)) / 2.0)
    right = Branch.custom(lambda x: 2.0 * x - 1.0, lambda x: 2.0,
                          lambda y: (y + 1.0) / 2.0)
    return validated(IFSystem(branches=(quad, right), open_set=(0.0, 1.0),
                              expansion=1.5))


def test_residual_custom_branches():
    system = _quadratic_system()
    assert not system.is_affine
    assert conjugacy_residual(system, ProbVector.of(0.3), 200,
                              seed=2) <= 1e-12


def test_rigidity_verdicts(dyadic, quarter, half):
    rigid = rigidity_report(dyadic, half, sample_count=64,
                            grid_sizes=(257, 513, 1025))
    assert rigid.verdict == "rigid" and rigid.rigid
    assert abs(rigid.alpha_minus - rigid.delta) <= rigid.tol
    loose = rigidity_report(dyadic, quarter, sample_count=64,
                            grid_sizes=(257, 513, 1025))
    assert loose.verdict == "non-rigid" and not loose.rigid
    # singular case: the seminorm at the dimension exponent keeps growing
    assert loose.seminorm_sweep[-1] > 1.2 * loose.seminorm_sweep[0]


def test_rigid_by_construction_always_rigid():
    u = (math.sqrt(5) - 1) / 2
    system = affine_system((2.0, 4.0), (0.0, -3.0), (0.0, 1.0))
    rep = rigidity_report(system, ProbVector.of(u), tol=1e-9, sample_count=32,
                          grid_sizes=(257, 513))
    assert rep.rigid
    assert rep.max_conjugacy_residual <= 1e-9


def test_report_json_fields(dyadic, half):
    rep = rigidity_report(dyadic, half, sample_count=16, grid_sizes=(129, 257))
    doc = rep.to_json()
    assert set(doc) == {"alpha_minus", "alpha_plus", "delta",
                        "max_conjugacy_residual", "verdict", "rigid",
                        "seminorm_sweep", "tol"}
    import json
    json.dumps(doc)  # JSON-serialisable as-is
