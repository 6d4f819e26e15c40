import math

import numpy as np
import pytest

from holderlab import (
    ProbVector,
    cdf_values,
    dyn_exponent,
    emp_exponent,
    pi_approx,
    sample_typical,
    spectrum_experiment,
)


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
