import math
from fractions import Fraction
from itertools import chain

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


def test_conjugacy_residual_gives_up_on_gap_starts(monkeypatch):
    # O is wider than the hull (0, 1), so one-symbol cylinders of O have
    # their midpoints -0.056 and 0.694 outside both windows [0, 0.25] and
    # [0.75, 1]: every draw starts in a gap and is drawn again
    system = validated(affine_system((4.0, 4.0), (0.0, -3.0), (-1.5, 1.05)))
    p = ProbVector.of(0.3)
    assert conjugacy_residual(system, p, 5) <= 1e-15
    monkeypatch.setattr(conjugacy, "WORD_LEN", 1)
    with pytest.raises(ValueError, match="rejected 151 draws") as info:
        conjugacy_residual(system, p, 5)
    assert "exclusion" not in str(info.value)


THREE = affine_system((3.0, 3.0, 3.0), (0.0, -1.0, -2.0), (0.0, 1.0))


def _one_word_at_a_time(system, count, seed):
    """Sample points and first symbols drawn one word per call, each point
    its word's pi_approx and its symbol the first step of the scalar coding
    walk; a point that starts in a gap is skipped."""
    rng = np.random.Generator(np.random.Philox(seed))
    xs, syms = [], []
    while len(xs) < count:
        word = tuple(int(s) for s in rng.choice(system.symbols(), size=48))
        x = pi_approx(system, word)[0]
        (_, sym, gap), = chain.from_iterable(
            _walk(system._coding.table, x, 1))
        if not gap:
            xs.append(x)
            syms.append(sym)
    return np.array(xs), np.array(syms)


def _near_edge_words(system, margin, seed):
    """One word per symbol s and hull end: s, then enough copies of the
    first (or last) symbol that the cylinder lies within margin of the left
    (or right) edge of window s, then a random tail.  The first and last
    branches of the systems here fix the hull ends."""
    rng = np.random.Generator(np.random.Philox(seed))
    slope = min(b.slope for b in system.branches)
    n = math.ceil(-math.log(margin) / math.log(slope))
    syms = system.symbols()
    return np.array([[s] + [e] * n
                     + [int(t) for t in rng.choice(syms, size=47 - n)]
                     for s in syms for e in (syms[0], syms[-1])])


@pytest.mark.parametrize("margin", [1e-6, 0.02])
@pytest.mark.parametrize("name", ["dyadic", "cantor", "three"])
def test_batched_samples_match_one_word_draws(monkeypatch, dyadic, cantor,
                                              name, margin):
    system = {"dyadic": dyadic, "cantor": cantor, "three": THREE}[name]
    ref_x, ref_sym = _one_word_at_a_time(system, 60, 11)
    # small chunks split the draws across many rng calls
    monkeypatch.setattr(conjugacy, "SAMPLE_CHUNK", 7)
    chunks = list(conjugacy._samples(system, 60, 11))
    assert all(x.size <= 7 for x, _ in chunks)
    x = np.concatenate([c[0] for c in chunks])
    sym = np.concatenate([c[1] for c in chunks])
    assert np.array_equal(sym, ref_sym)
    np.testing.assert_allclose(x, ref_x, rtol=0, atol=1e-15)
    # draws within margin of a window edge, which the retired exclusion
    # drew again, keep the one-word point and symbol, and the identity holds
    # there on phi, which reads no sampled orbit
    p = ProbVector.of(0.25, 0.375) if name == "three" else ProbVector.of(0.25)
    weights, left = p._float_weights
    words = _near_edge_words(system, margin, 11)
    x = conjugacy._midpoints(system, words)
    r = np.searchsorted(system._step.keys, x, side="right")
    k, ok = system._step.window[0][r], system._step.inside[0][r]
    assert ok.all()
    for word, xb, s in zip(words.tolist(), x, k + 1):
        xr = pi_approx(system, tuple(word))[0]
        (_, sym, gap), = chain.from_iterable(
            _walk(system._coding.table, xr, 1))
        assert not gap and sym == s == word[0]
        assert abs(xb - xr) <= 1e-15
        u, v = hull_preimages(system)[s - 1]
        assert min(xb - u, v - xb) < margin
        fx = system.branches[s - 1](xb)
        rhs = (phi(system, p, xb) - left[s - 1]) / weights[s - 1]
        assert abs(phi(system, p, fx) - rhs) <= 1e-10


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
