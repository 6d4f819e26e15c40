import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holderlab import (
    PressureCurve,
    ProbVector,
    affine_system,
    cdf_values,
    dyn_exponent,
    emp_exponent,
    ergodic_sums,
    gibbs_weights,
    pi_approx,
    sample_typical,
    spectrum_experiment,
    spectrum_point,
)
from holderlab.exponents import _empirical


def test_dyn_exponent_periodic_exact(cantor, quarter):
    # the ratio at full periods is the closed-form cycle average
    word = (1, 2) * 20
    trace = dyn_exponent(cantor, quarter, word)
    expect = (math.log(4) + math.log(4 / 3)) / (2 * math.log(3))
    assert trace.ratios[-1] == pytest.approx(expect, abs=1e-12)
    assert trace.liminf_estimate == pytest.approx(expect, abs=1e-12)


def test_dyn_exponent_constant_word(cantor, quarter):
    trace = dyn_exponent(cantor, quarter, (2,) * 15)
    expect = math.log(4 / 3) / math.log(3)
    assert all(r == pytest.approx(expect, abs=1e-12) for r in trace.ratios)
    assert len(trace.boundary_distances) == 15
    assert all(d >= 0 for d in trace.boundary_distances)


def test_dyn_exponent_rejects_empty(cantor, quarter):
    with pytest.raises(ValueError):
        dyn_exponent(cantor, quarter, ())


def test_emp_exponent_on_identity(dyadic, half):
    # T is the identity here, so oscillations scale linearly
    evaluate = lambda xs: cdf_values(dyadic, half, xs, tol=1e-15)
    est = emp_exponent(evaluate, 0.4371, [2.0 ** -k for k in range(4, 16)])
    assert est.slope == pytest.approx(1.0, abs=1e-3)
    assert est.window_min == pytest.approx(1.0, abs=1e-3)
    assert est.dropped == ()


def test_emp_exponent_cycle(cantor, quarter):
    evaluate = lambda xs: cdf_values(cantor, quarter, xs, tol=1e-16)
    x, _ = pi_approx(cantor, (1,) * 40)
    est = emp_exponent(evaluate, x, [3.0 ** -k for k in range(6, 21)])
    expect = math.log(4) / math.log(3)
    assert abs(est.slope - expect) / expect < 0.1


def test_emp_exponent_floor_guard():
    evaluate = lambda xs: np.zeros_like(np.asarray(xs, dtype=float))
    with pytest.raises(ValueError):
        emp_exponent(evaluate, 0.5, [1e-2, 1e-3, 1e-4])


def test_sample_typical_reproducible(dyadic, quarter):
    a = sample_typical(dyadic, quarter, 0.0, word_len=20, count=5, seed=42)
    b = sample_typical(dyadic, quarter, 0.0, word_len=20, count=5, seed=42)
    assert a.words == b.words and a.points == b.points
    c = sample_typical(dyadic, quarter, 0.0, word_len=20, count=5, seed=43)
    assert c.words != a.words
    assert a.alpha_predicted == pytest.approx(1.2075187496394217, abs=1e-12)
    assert a.seed == 42


def test_spectrum_experiment_rows(dyadic, quarter):
    rows = spectrum_experiment(dyadic, quarter, [0.0, 1.5], word_len=300,
                               count=16, seed=9)
    header = ["beta", "alpha_pred", "g", "dyn_mean", "dyn_sigma",
              "emp_mean", "emp_sigma", "count", "seed"]
    assert [list(r) == header for r in rows]
    for r in rows:
        assert abs(r["dyn_mean"] - r["alpha_pred"]) < 5 * r["dyn_sigma"] + 0.02
        assert math.isnan(r["emp_mean"])
        assert r["count"] == 16
    assert rows[0]["seed"] == 9 and rows[1]["seed"] == 10


@pytest.mark.parametrize("sizes", [{"count": 0}, {"word_len": 0}])
def test_spectrum_experiment_rejects_empty_samples(dyadic, quarter, sizes):
    with pytest.raises(ValueError):
        spectrum_experiment(dyadic, quarter, [0.0], **sizes)


def test_spectrum_experiment_with_evaluator(dyadic, half):
    evaluate = lambda xs: cdf_values(dyadic, half, xs, tol=1e-14)
    rows = spectrum_experiment(dyadic, half, [0.0], word_len=60, count=4,
                               seed=1, evaluate=evaluate,
                               scales=np.geomspace(1e-5, 1e-2, 7))
    # the identity cdf has empirical exponent 1 everywhere
    assert rows[0]["emp_mean"] == pytest.approx(1.0, abs=1e-2)
    assert rows[0]["emp_sigma"] < 1e-2


@st.composite
def affine_inputs(draw):
    """2 to 4 branches of integer or half-integer slopes laid left to right
    on (0, 1), with drawn gaps, and drawn weights; exact or float."""
    k = draw(st.integers(2, 4))
    slopes = [Fraction(draw(st.integers(2 * k, 2 * k + 8)), 2)
              for _ in range(k)]
    gaps = [draw(st.integers(0, 3)) for _ in range(k)]
    unit = (1 - sum(1 / a for a in slopes)) / (sum(gaps) + 1)
    starts, edge = [], Fraction(0)
    for a, g in zip(slopes, gaps):
        starts.append(edge + g * unit)
        edge = starts[-1] + 1 / a
    raw = [draw(st.integers(1, 20)) for _ in range(k)]
    free = [Fraction(r, sum(raw)) for r in raw[:-1]]
    intercepts = [-a * s for a, s in zip(slopes, starts)]
    open_set = (Fraction(0), Fraction(1))
    if not draw(st.booleans()):
        slopes, intercepts, open_set, free = (
            [float(v) for v in vs]
            for vs in (slopes, intercepts, open_set, free))
    return affine_system(slopes, intercepts, open_set), ProbVector.of(*free)


def reference_words(system, p, beta, word_len, count, seed):
    """The parent's sampler: words drawn from the Gibbs weights at beta."""
    q, t_prime = gibbs_weights(system, p, beta)
    rng = np.random.Generator(np.random.Philox(seed))
    draws = rng.choice(np.array(system.symbols()), size=(count, word_len),
                       p=q)
    return [tuple(int(s) for s in row) for row in draws], -t_prime


def reference_ratios(system, p, word):
    s_phi, s_psi = ergodic_sums(system, p, word)
    return [sp / sf for sf, sp in zip(s_phi, s_psi)]


def reference_rows(system, p, betas, word_len, count, seed, evaluate):
    """spectrum_experiment word by word: per beta one Gibbs solve and the
    Legendre value t - beta t' at the known minimiser beta, per word
    pi_approx and ergodic_sums.  That g is also the one spectrum_point
    finds at alpha = -t'(beta)."""
    curve = PressureCurve(system, p)
    rows = []
    for i, beta in enumerate(betas):
        words, alpha = reference_words(system, p, beta, word_len, count,
                                       seed + i)
        dyn = np.array([min(reference_ratios(system, p, w)
                            [math.ceil(word_len / 2) - 1:]) for w in words])
        emp_mean = emp_sigma = math.nan
        if evaluate is not None:
            emp = np.array([e.slope for e in _empirical(
                evaluate, [pi_approx(system, w)[0] for w in words],
                np.geomspace(1e-6, 1e-2, 9))])
            emp_mean, emp_sigma = float(emp.mean()), float(emp.std())
        g = curve.t(beta) - beta * curve.t_prime(beta)
        assert g == pytest.approx(spectrum_point(curve, alpha).g, abs=1e-12)
        rows.append({"beta": beta, "alpha_pred": alpha, "g": g,
                     "dyn_mean": float(dyn.mean()),
                     "dyn_sigma": float(dyn.std()),
                     "emp_mean": emp_mean, "emp_sigma": emp_sigma,
                     "count": count, "seed": seed + i})
    return rows


@given(inputs=affine_inputs(),
       betas=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=3),
       word_len=st.integers(1, 80), count=st.integers(1, 40),
       seed=st.integers(0, 2 ** 31), empirical=st.booleans())
@settings(max_examples=40, deadline=None)
def test_spectrum_experiment_matches_word_by_word(inputs, betas, word_len,
                                                  count, seed, empirical):
    system, p = inputs
    betas = betas + [0.0, betas[0]]
    evaluate = None
    if empirical:
        evaluate = lambda xs: cdf_values(system, p, xs, tol=1e-12)
    run = lambda: spectrum_experiment(system, p, betas, word_len=word_len,
                                      count=count, seed=seed,
                                      evaluate=evaluate)
    try:
        expect = reference_rows(system, p, betas, word_len, count, seed,
                                evaluate)
    except ValueError as exc:   # every scale of a point below the floor
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            run()
        return
    rows = run()
    assert len(rows) == len(expect)
    for row, want in zip(rows, expect):
        assert row.keys() == want.keys()
        for key, value in want.items():
            if key.startswith("emp_") and math.isnan(value):
                assert math.isnan(row[key])
            else:
                assert row[key] == value, key

    # the public per-word functions give the same bits
    samples = sample_typical(system, p, betas[0], word_len=word_len,
                             count=count, seed=seed)
    words, alpha = reference_words(system, p, betas[0], word_len, count, seed)
    assert samples.words == tuple(words)
    assert samples.alpha_predicted == alpha
    assert samples.points == tuple(pi_approx(system, w)[0] for w in words)
    for w in words[:3]:
        trace = dyn_exponent(system, p, w)
        ratios = reference_ratios(system, p, w)
        assert trace.ratios == tuple(ratios)
        assert trace.liminf_estimate == min(ratios[math.ceil(word_len / 2)
                                                   - 1:])
