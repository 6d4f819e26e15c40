import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import legendre_reference, legendre_value
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
from holderlab.exponents import _FLOOR, _empirical, _fit, _slopes


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
    with pytest.raises(ValueError, match="no scales given"):
        emp_exponent(evaluate, 0.5, [])


def test_emp_exponent_needs_two_distinct_scales():
    # scales with one log between them leave sxx = 0 in the fit, whose
    # slope is then NaN; 1e-3 and the next float have the same log
    evaluate = lambda xs: np.sqrt(np.abs(np.asarray(xs, dtype=float)))
    for scales in ([1e-3, 1e-3], [1e-3], [1e-3, math.nextafter(1e-3, 1)]):
        with pytest.raises(ValueError, match="fewer than two distinct"):
            emp_exponent(evaluate, 0.5, scales)
        with pytest.raises(ValueError, match="fewer than two distinct"):
            spectrum_experiment(affine_system((2.0, 2.0), (0.0, -1.0),
                                              (0.0, 1.0)), ProbVector.of(0.3),
                                [0.0], word_len=4, count=2,
                                evaluate=evaluate, scales=scales)
    # two equal scales survive the floor only where a third is dropped
    with pytest.raises(ValueError, match="fewer than two distinct"):
        _fit(0.5, [1e-2, 1e-2, 1e-3], [0.1, 0.1, 0.0])


@pytest.mark.parametrize("scale", [-1e-3, 0.0, math.inf, math.nan])
def test_scales_must_be_finite_and_above_zero(dyadic, scale):
    # each once made numpy warn (log of a negative, divide by zero,
    # inf - inf) and fit a NaN slope; a NaN scale passed the distinct-logs
    # check and fitted a NaN slope without a word
    evaluate = lambda xs: np.sqrt(np.abs(np.asarray(xs, dtype=float)))
    scales = [1e-2, scale, 1e-4]
    message = re.escape(f"scale {scale} is not a finite number above 0")
    with pytest.raises(ValueError, match=message):
        emp_exponent(evaluate, 0.5, scales)
    with pytest.raises(ValueError, match=message):
        spectrum_experiment(dyadic, ProbVector.of(0.3), [0.0], word_len=4,
                            count=2, evaluate=evaluate, scales=scales)


def test_emp_exponent_refuses_a_point_that_is_not_finite():
    # a NaN point fitted a NaN slope without a word
    evaluate = lambda xs: np.sqrt(np.abs(np.asarray(xs, dtype=float)))
    for x in (math.nan, math.inf):
        with pytest.raises(ValueError, match="x must be a finite number"):
            emp_exponent(evaluate, x, [1e-2, 1e-3])


@pytest.mark.parametrize("count", [0, -1])
def test_sample_typical_refuses_a_count_below_one(dyadic, count):
    # 0 gave no samples, -1 numpy's "negative dimensions are not allowed"
    with pytest.raises(ValueError, match="count"):
        sample_typical(dyadic, ProbVector.of(0.3), 0.0, count=count)


def test_sampling_refuses_a_negative_seed(dyadic):
    # numpy's Philox said "expected non-negative integer"
    p = ProbVector.of(0.3)
    with pytest.raises(ValueError, match="seed"):
        sample_typical(dyadic, p, 0.0, seed=-1)
    with pytest.raises(ValueError, match="seed"):
        spectrum_experiment(dyadic, p, [0.0], seed=-1)


def test_emp_exponent_fields_are_floats(dyadic, half):
    evaluate = lambda xs: cdf_values(dyadic, half, xs, tol=1e-15)
    est = emp_exponent(evaluate, 0.4371, np.geomspace(1e-6, 1e-2, 5))
    fields = est.scales + est.oscillations + est.ratios + est.dropped
    assert all(type(v) is float for v in fields + (est.x, est.slope,
                                                   est.window_min))


@pytest.mark.parametrize("n", range(2, 41))
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=10, deadline=None)
def test_row_wise_fits_have_the_bits_of_fit(n, seed):
    # every scale count the fits meet: the rows that keep every scale are
    # fitted row-wise, and numpy must sum each row as it sums the 1-D fit's
    # arrays; the rows that drop a scale, at or just below the floor, stay
    # on _fit, which raises when fewer than two distinct scales survive
    rng = np.random.default_rng(seed)
    scales = sorted(10.0 ** rng.uniform(-7, -1, n), reverse=True)
    if n > 2 and rng.random() < 0.2:   # _empirical needs 2 distinct
        scales[1] = scales[0]
    rows = 1 + rng.integers(8)
    alpha = rng.uniform(0.2, 2.0, (rows, 1))
    oscs = np.array(scales) ** alpha * np.exp(rng.normal(0, 0.5, (rows, n)))
    for row in oscs[1:]:
        if rng.random() < 0.5:
            at = rng.integers(n, size=rng.integers(1, n + 1))
            row[at] = rng.choice([_FLOOR, _FLOOR / 2, 0.0,
                                  math.nextafter(_FLOOR, 1.0)], at.size)
    xs = rng.uniform(0.0, 1.0, rows)
    slopes, errors = {}, set()
    for i, (x, row) in enumerate(zip(xs, oscs)):
        try:
            slopes[i] = _fit(x, scales, row).slope
        except ValueError as exc:
            errors.add(str(exc))
    for exc in errors:
        with pytest.raises(ValueError, match=re.escape(exc)):
            _slopes(xs, scales, oscs)
    fit = list(slopes)
    got = _slopes(xs[fit], scales, oscs[fit]).tolist()
    assert [v.hex() for v in got] == [slopes[i].hex() for i in fit]


def test_sample_typical_reproducible(dyadic, quarter):
    a = sample_typical(dyadic, quarter, 0.0, word_len=20, count=5, seed=42)
    b = sample_typical(dyadic, quarter, 0.0, word_len=20, count=5, seed=42)
    assert a.words == b.words and a.points == b.points
    c = sample_typical(dyadic, quarter, 0.0, word_len=20, count=5, seed=43)
    assert c.words != a.words
    assert a.alpha_predicted == pytest.approx(1.2075187496394217, abs=1e-12)
    assert a.seed == 42
    with pytest.raises(ValueError, match="word_len"):
        sample_typical(dyadic, quarter, 0.0, word_len=0, count=5)


def test_spectrum_experiment_rows(dyadic, quarter):
    rows = spectrum_experiment(dyadic, quarter, [0.0, 1.5], word_len=300,
                               count=16, seed=9)
    header = ["beta", "alpha_pred", "g", "dyn_mean", "dyn_sigma",
              "emp_mean", "emp_sigma", "count", "seed"]
    assert all(list(r) == header for r in rows)
    for r in rows:
        assert abs(r["dyn_mean"] - r["alpha_pred"]) < 5 * r["dyn_sigma"] + 0.02
        assert math.isnan(r["emp_mean"])
        assert r["count"] == 16
    assert rows[0]["seed"] == 9 and rows[1]["seed"] == 10
    assert spectrum_experiment(dyadic, quarter, []) == []


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


@pytest.mark.parametrize("betas, count", [
    ([-1.5, 0.0, 2.0], 5),
    ([0.5, 0.5, -3.0, 0.5], 3),     # equal betas draw apart, seed + i
    ([1.0, -2.0], 1),
])
@pytest.mark.parametrize("empirical", [False, True])
@pytest.mark.parametrize("name", ["cantor", "dyadic"])
def test_stacked_betas_give_the_one_beta_rows(request, name, quarter, betas,
                                              count, empirical):
    # every beta's words share one stacked pass and one evaluator call, yet
    # each row has the bits of a one-beta run with that beta's seed
    system = request.getfixturevalue(name)
    scales = np.geomspace(1e-5, 1e-2, 4)
    calls = []

    def recording(xs):
        calls.append(np.array(xs))
        return cdf_values(system, quarter, xs, tol=1e-14)

    run = lambda bs, seed: spectrum_experiment(
        system, quarter, bs, word_len=40, count=count, seed=seed,
        evaluate=recording if empirical else None, scales=scales)
    rows = run(betas, 11)
    stacked, calls[:] = calls[:], []
    alone = [run([beta], 11 + i)[0] for i, beta in enumerate(betas)]
    assert [repr(r) for r in rows] == [repr(r) for r in alone]
    if not empirical:
        assert stacked == calls == []
        return
    (points,) = stacked
    # beta-major, every sampled point x in turn: x - o for every distinct
    # cloud offset o (36 of this decade ladder's 64), x and x + o, as
    # ascending floats, none passed twice for one x (np.unique)
    offsets = np.unique([np.geomspace(r * 1e-3, r, 16) for r in scales])
    xs = [x for i, beta in enumerate(betas) for x in sample_typical(
        system, quarter, beta, word_len=40, count=count, seed=11 + i).points]
    assert offsets.size == 36 and np.array_equal(points, np.concatenate(
        [np.unique(np.r_[x - offsets, x, x + offsets]) for x in xs]))


def _cloud_oscillations(evaluate, xs, scales):
    """Reference for `_empirical`: every scale's own 32-point cloud, x - o
    and x + o for its 16 geometric offsets o over the three decades below
    it, evaluated alone, and the largest deviation from the value at x."""
    oscs = np.empty((len(xs), len(scales)))
    for i, x in enumerate(xs):
        fx = evaluate(np.array([x]))[0]
        for k, r in enumerate(sorted(scales, reverse=True)):
            offs = np.geomspace(r * 1e-3, r, 16)
            cloud = np.concatenate((x - offs, x + offs))
            oscs[i, k] = np.max(np.abs(evaluate(cloud) - fx))
    return oscs


@st.composite
def cloud_scales(draw):
    """Scale sets whose clouds share offsets (half-decade and decade
    ladders, as the default nine scales), share none (drawn floats), or
    repeat a scale; each holds two scales of distinct logs."""
    kind = draw(st.sampled_from(["half-decade", "decade", "apart"]))
    if kind == "apart":
        scales = draw(st.lists(st.floats(1e-9, 0.5), min_size=2, max_size=6,
                               unique=True))
    else:
        lo, n = 10.0 ** draw(st.integers(-9, -2)), draw(st.integers(2, 9))
        step = 0.5 if kind == "half-decade" else 1.0
        scales = np.geomspace(lo, lo * 10 ** (step * (n - 1)), n).tolist()
    if draw(st.booleans()):
        scales.append(draw(st.sampled_from(scales)))
    assume(len(set(np.log(scales).tolist())) >= 2)
    return scales


@settings(max_examples=60, deadline=None)
@example(scales=np.geomspace(1e-6, 1e-2, 9).tolist(), xs=[0.3, 0.75],
         weight=19, name="cantor")
@given(scales=cloud_scales(),
       xs=st.lists(st.floats(-0.5, 1.5) | st.sampled_from(
           [0.0, 1e-300, 1 / 3, 0.5, 1 - 2 ** -53, 1e6]),
           min_size=1, max_size=5),
       weight=st.integers(1, 63),
       name=st.sampled_from(["cantor", "dyadic"]))
def test_shared_cloud_points_give_each_clouds_oscillations(scales, xs, weight,
                                                           name):
    # the clouds of all scales share their distinct points, each evaluated
    # once; every oscillation is still that of the scale's own 32 points
    system = affine_system((3.0, 3.0), (0.0, -2.0), (0.0, 1.0)) \
        if name == "cantor" else affine_system((2.0, 2.0), (0.0, -1.0),
                                               (0.0, 1.0))
    p = ProbVector.of(weight / 64)
    evaluate = lambda pts: cdf_values(system, p, pts, tol=1e-14)
    got_scales, oscs = _empirical(evaluate, xs, scales)
    assert got_scales == sorted(map(float, scales), reverse=True)
    want = _cloud_oscillations(evaluate, xs, scales)
    assert oscs.shape == want.shape and oscs.tobytes() == want.tobytes()


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
    Legendre value at the known minimiser beta, the Gibbs weights' entropy
    over their Lyapunov exponent, per word pi_approx, ergodic_sums and
    emp_exponent.
    That g is t - beta t' of 50-digit t and t' (`legendre_reference`)
    within 8 eps of their scale, and also the one spectrum_point finds at
    alpha = -t'(beta)."""
    curve = PressureCurve(system, p)
    rows = []
    for i, beta in enumerate(betas):
        words, alpha = reference_words(system, p, beta, word_len, count,
                                       seed + i)
        g = legendre_value(system, gibbs_weights(system, p, beta)[0])
        g_ref, scale = legendre_reference(system, p, beta)
        assert abs(g - g_ref) <= 8 * 2.0 ** -52 * scale
        dyn = np.array([min(reference_ratios(system, p, w)
                            [math.ceil(word_len / 2) - 1:]) for w in words])
        emp_mean = emp_sigma = math.nan
        if evaluate is not None:
            emp = np.array([emp_exponent(
                evaluate, pi_approx(system, w)[0],
                np.geomspace(1e-6, 1e-2, 9)).slope for w in words])
            emp_mean, emp_sigma = float(emp.mean()), float(emp.std())
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
