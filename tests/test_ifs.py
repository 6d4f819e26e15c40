import itertools
import math
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import bent_system
from holderlab import (
    Branch,
    ConfigurationError,
    EncodeResult,
    GridFunction,
    IFSystem,
    OutsideHullError,
    PressureCurve,
    ProbVector,
    affine_system,
    alpha_endpoints,
    apply_transition,
    attractor_hull,
    cdf_values,
    compactified_distance,
    compactify,
    conjugacy_residual,
    cylinder,
    cylinder_increment,
    derivative_grids,
    distortion_constant,
    dyn_exponent,
    encode,
    ergodic_sums,
    eval_cdf,
    eval_derivative_point,
    gap_probe,
    iterate_transition,
    phi,
    pi_approx,
    pressure,
    rigidity_report,
    sample_typical,
    solve_pressure_root,
    spectrum,
    spectrum_experiment,
    system_from_json,
    system_to_json,
    uniform_grid,
    validate,
    validated,
)
from holderlab.ifs import _TABLES, _branch_fixed_point, _suffix_midpoints


def test_affine_branch_roundtrip():
    b = Branch.affine(2.0, -1.0)
    assert b(0.75) == 0.5
    assert b.inverse(0.5) == 0.75
    assert b.derivative(0.3) == 2.0
    assert b.is_affine
    with pytest.raises(ConfigurationError, match="slope > 1"):
        Branch.affine(1.0, 0.0)


def test_custom_branch_roundtrip():
    b = Branch.custom(fn=lambda x: x * x + 2 * x,
                      dfn=lambda x: 2 * x + 2,
                      inv=lambda y: math.sqrt(1 + y) - 1)
    assert b(1.0) == 3.0
    assert abs(b.inverse(3.0) - 1.0) < 1e-12
    assert b.derivative(0.5) == 3.0
    assert not b.is_affine


def test_cylinder_oracle(dyadic):
    lo, hi = cylinder(dyadic, (1, 2))
    assert (lo, hi) == (0.25, 0.5)


def test_cylinder_rational_exact():
    system = affine_system((Fraction(2), Fraction(2)),
                           (Fraction(0), Fraction(-1)),
                           (Fraction(0), Fraction(1)))
    lo, hi = cylinder(system, (2, 1, 2))
    assert (lo, hi) == (Fraction(5, 8), Fraction(3, 4))


@given(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_cylinder_nesting_and_width(word):
    system = affine_system((2.0, 2.0), (0.0, -1.0), (0.0, 1.0))
    lo, hi = cylinder(system, word)
    assert hi - lo == pytest.approx(2.0 ** -len(word), rel=1e-12)
    if len(word) > 1:
        plo, phi_ = cylinder(system, word[:-1])
        assert plo <= lo and hi <= phi_


def test_attractor_hull(dyadic, cantor):
    assert attractor_hull(dyadic) == (0.0, 1.0)
    assert attractor_hull(cantor) == (0.0, 1.0)
    shifted = affine_system((2.0, 2.0), (1.0, -2.0), (-1.0, 2.0))
    assert attractor_hull(shifted) == (-1.0, 2.0)


def test_custom_branch_fixed_points_by_bisection(quarter):
    # on O = (-0.25, 1.25) the fixed points 0 and 1 of 3x and 3x - 2 lie
    # inside O, so the hull comes from bisecting branch(x) - x
    b1 = Branch.custom(fn=lambda x: 3 * x, dfn=lambda x: 3.0,
                       inv=lambda y: y / 3)
    b2 = Branch.custom(fn=lambda x: 3 * x - 2, dfn=lambda x: 3.0,
                       inv=lambda y: (y + 2) / 3)
    system = validated(IFSystem(branches=(b1, b2), open_set=(-0.25, 1.25),
                                expansion=3.0))
    a, b = attractor_hull(system)
    assert abs(a) <= 1e-15 and abs(b - 1) <= 1e-15
    twin = affine_system((3.0, 3.0), (0.0, -2.0), (-0.25, 1.25))
    xs = np.linspace(-0.1, 1.1, 101)
    assert np.max(np.abs(cdf_values(system, quarter, xs)
                         - cdf_values(twin, quarter, xs))) <= 1e-12


def test_custom_branch_fixed_point_after_every_bisection_step():
    # 3(x - 10^6) + 10^6 + 0.1 has its fixed point at 10^6 - 0.05; near
    # 10^6 a float step is 1.2e-10, so the bracket never gets below 1e-15
    # and g never hits 0 exactly: the bisection takes all 200 steps, two
    # calls for the ends and one per step, and returns the last midpoint
    calls = []

    def fn(x):
        calls.append(x)
        return 3 * (x - 1e6) + 1e6 + 0.1

    branch = Branch.custom(fn=fn, dfn=lambda x: 3.0,
                           inv=lambda y: (y - 1e6 - 0.1) / 3 + 1e6)
    assert _branch_fixed_point(branch, (1e6 - 10, 1e6 + 10)) \
        == float(1e6 - 0.05)
    assert len(calls) == 2 + 200


def _custom(fn, dfn=lambda x: 2.0, inv=lambda y: y / 2):
    return Branch.custom(fn=fn, dfn=dfn, inv=inv)


_RIGHT = _custom(lambda x: 2 * x - 1, inv=lambda y: (y + 1) / 2)

# a system the library refuses, how it is reached, and the refusal
REFUSED = {
    "custom branch without a fixed point": (
        lambda: attractor_hull(IFSystem(
            branches=(_custom(lambda x: 2 * x + 5, inv=lambda y: (y - 5) / 2),
                      _RIGHT), open_set=(0.0, 1.0))),
        "no fixed point"),
    "affine slope below the expansion bound": (
        lambda: validate(IFSystem(
            branches=(Branch.affine(2.0, 0.0), Branch.affine(2.0, -1.0)),
            open_set=(0.0, 1.0), expansion=2.5)),
        "slope 2.0 below expansion bound 2.5"),
    "custom branch not increasing": (
        lambda: validate(IFSystem(
            branches=(_custom(lambda x: 0.5 - 2 * x), _RIGHT),
            open_set=(0.0, 1.0))),
        "not strictly increasing"),
    "custom derivative below the expansion bound": (
        lambda: validate(IFSystem(
            branches=(_custom(lambda x: 2 * x, dfn=lambda x: 1.0), _RIGHT),
            open_set=(0.0, 1.0), expansion=2.0)),
        "derivative sample 1.0 below expansion bound 2.0"),
    "custom inverse off by 0.01": (
        lambda: validate(IFSystem(
            branches=(_custom(lambda x: 2 * x, inv=lambda y: y / 2 + 0.01),
                      _RIGHT), open_set=(0.0, 1.0))),
        "inverse round-trip error"),
    "order of two components on two branches": (
        lambda: eval_derivative_point(
            affine_system((2.0, 2.0), (0.0, -1.0), (0.0, 1.0)),
            ProbVector.of(0.25), (1, 1), 0.3),
        "order needs 1 components, got 2"),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refusals(name):
    call, message = REFUSED[name]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_encode_examples(dyadic, cantor):
    assert encode(dyadic, 0.25, 2).word == (1, 1)  # tie resolves downward
    assert encode(dyadic, 1.0, 3).word == (2, 2, 2)
    enc = encode(cantor, 0.5, 5)
    assert enc.gap and enc.word == ()
    assert encode(dyadic, 0.3, 0) == EncodeResult(word=(), gap=False)
    with pytest.raises(OutsideHullError):
        encode(dyadic, 1.5, 3)


@pytest.mark.parametrize("evaluate", [
    lambda s, p, x: eval_cdf(s, p, x),
    lambda s, p, x: cdf_values(s, p, [0.25, x]),
    lambda s, p, x: encode(s, x, 5),
    lambda s, p, x: phi(s, p, x),
    lambda s, p, x: eval_derivative_point(s, p, (1,), x),
], ids=["eval_cdf", "cdf_values", "encode", "phi", "eval_derivative_point"])
@pytest.mark.parametrize("exact", [False, True])
def test_nan_point_raises(evaluate, exact):
    # NaN passes every hull test and lies right of every window, so a walk
    # would give the mass of every branch (1.0 with bound 0) or an empty word
    system = affine_system((2.0, 2.0), (0.0, -1.0), (0.0, 1.0))
    p = ProbVector.of(0.25)
    if exact:
        system = affine_system((Fraction(2), Fraction(2)),
                               (Fraction(0), Fraction(-1)),
                               (Fraction(0), Fraction(1)))
        p = ProbVector.of(Fraction(1, 4))
    with pytest.raises(ValueError, match="NaN"):
        evaluate(system, p, math.nan)


def test_walk_one_branch_at_ties_and_gaps(dyadic, cantor, quarter):
    # at shared endpoints every walk takes the smaller branch: its
    # linear-model cylinder lies left of the cdf value there, which
    # telescopes no left sibling into the derivative
    for x, depth, value in ((0.25, 2, 1 / 16), (0.5, 1, 1 / 4)):
        assert encode(dyadic, x, depth) == EncodeResult((1,) * depth, False)
        assert eval_cdf(dyadic, quarter, x, max_depth=depth) == \
            (0.0, 0.25 ** depth)
        assert eval_derivative_point(dyadic, quarter, (1,), x,
                                     depth=depth)[0] == 0.0
        assert phi(dyadic, quarter, x) == value
    # in a gap every walk stops with the first branch left of the point
    for x in (0.4, 0.65):
        assert encode(cantor, x, 5) == EncodeResult((), True)
        assert eval_cdf(cantor, quarter, x) == (0.25, 0.0)
        assert phi(cantor, quarter, x) == 0.25
        assert eval_derivative_point(cantor, quarter, (1,), x) == (1.0, 0.0)


def test_encode_pi_roundtrip(dyadic):
    for x in (0.1, 0.37, 0.62, 0.99):
        word = encode(dyadic, x, 20).word
        lo, hi = cylinder(dyadic, word)
        assert lo <= x <= hi
        mid, half = pi_approx(dyadic, word)
        assert abs(mid - x) <= half


def test_probvector_basics():
    p = ProbVector.of(0.25)
    assert p[1] == 0.25 and p[2] == 0.75
    with pytest.raises(ConfigurationError, match="at least one free weight"):
        ProbVector.of()
    assert p.free == (0.25,)
    assert p.mass((1, 2)) == pytest.approx(0.1875)
    assert p.left_mass(2) == pytest.approx(0.25)
    assert not p.is_rational
    pr = ProbVector((Fraction(1, 4), Fraction(3, 4)))
    assert pr.is_rational
    assert pr.mass((1, 2)) == Fraction(3, 16)
    assert pr.as_floats().weights == (0.25, 0.75)


def test_probvector_reads_its_weights_and_no_other():
    # p[0] was the last weight, so iteration and numpy read one weight too
    # many: (0.7, 0.3, 0.7)
    p = ProbVector.of(0.3)
    assert tuple(p) == (0.3, 0.7)
    assert np.asarray(p).tolist() == [0.3, 0.7]
    exact = ProbVector.of(Fraction(3, 10))
    assert tuple(exact) == (Fraction(3, 10), Fraction(7, 10))
    for q in (p, exact):
        for bad in (0, 3, -1):
            with pytest.raises(IndexError, match="symbol"):
                q[bad]


@pytest.mark.parametrize("p", [ProbVector.of(0.5),
                               ProbVector.of(Fraction(1, 3), Fraction(1, 6))])
def test_left_mass_of_every_symbol_and_no_other(p):
    n = len(p)
    assert [p.left_mass(sym) for sym in range(1, n + 2)] \
        == [sum(p.weights[:k], p._unit[0]) for k in range(n + 1)]
    assert p.left_mass(np.int64(n + 1)) == 1
    for bad in (0, -1, n + 2, 1.5, "1"):
        with pytest.raises(ValueError, match="symbols must"):
            p.left_mass(bad)


def test_weight_sums_add_one_weight_at_a_time():
    # sum() of floats is compensated from Python 3.12 on, which would give
    # 0.6 here; the left masses and the derived last weight keep adding one
    # weight at a time, as np.cumsum does, on every interpreter
    p = ProbVector((0.1, 0.2, 0.3, 0.4))
    assert p._left == (0.0, 0.1, 0.30000000000000004, 0.6000000000000001, 1.0)
    assert np.array(p._left).tobytes() \
        == np.concatenate([[0.0], np.cumsum(p.weights)]).tobytes()
    assert p._float_weights[1].tobytes() == np.array(p._left).tobytes()
    assert ProbVector.of(0.1, 0.2, 0.3)[4] == 1 - 0.6000000000000001


def test_exact_weights_enter_float_computations_as_their_float_twin():
    # the last weight of the twin is 1 - 0.3333333333333333, one ulp above
    # the float nearest to 2/3
    p = ProbVector.of(Fraction(1, 3))
    twin = p.as_floats()
    assert twin.weights == (1 / 3, 1 - 1 / 3) != (1 / 3, 2 / 3)
    assert twin is p.as_floats() and twin.as_floats() is twin
    weights, left = p._float_weights
    assert weights.tolist() == list(twin.weights)
    assert left.tolist() == list(twin._left)


def test_validate_grades(dyadic, cantor, quarter):
    rep = validate(dyadic, quarter)
    assert rep.ok and rep.osc and not rep.separating
    repc = validate(cantor, ProbVector.of(0.5))
    assert repc.osc and repc.separating
    # an overlapping pair of preimage intervals breaks the OSC
    overlap = affine_system((2.0, 2.0), (0.0, -0.5), (0.0, 1.0))
    assert not validate(overlap).osc
    with pytest.raises(ConfigurationError):
        validate(affine_system((2.0,), (0.0,), (0.0, 1.0)))


def test_validate_far_from_the_origin():
    """Preimages of (c, c + 1) at c = 1e6 + 0.3 overshoot O by one unit of
    rounding (1.16e-10), which is not an escape from O."""
    c = 1e6 + 0.3
    system = affine_system((3.0, 3.0, 3.0), (-2 * c, -2 * c - 1, -2 * c - 2),
                           (c, c + 1))
    rep = validate(system)
    assert rep.ok and rep.osc and not rep.separating
    assert validated(system) is system


def test_validate_tiny_open_set_overlap():
    """On (0, 1e-9), 2x and 2x - 0.999e-9 overlap by 5e-13, 0.05% of O."""
    system = affine_system((2.0, 2.0), (0.0, -0.999e-9), (0.0, 1e-9))
    rep = validate(system)
    assert not rep.osc and not rep.ok
    assert [name for name, _, _ in rep.failures()] == ["preimages 1,2 disjoint"]
    with pytest.raises(ConfigurationError, match="disjoint"):
        validated(system)
    # the same pair scaled by 1e-9 from (0, 1) touches
    assert validate(affine_system((2.0, 2.0), (0.0, -1e-9),
                                  (0.0, 1e-9))).osc


def test_derived_facts_are_not_inputs(dyadic, quarter):
    """The spectrum, the derivative bound and the disjointness grades are
    derived from the system and the weights; none can be passed in."""
    with pytest.raises(TypeError):
        spectrum(dyadic, quarter, [1.0],
                 curve=PressureCurve(dyadic, ProbVector.of(0.4)))
    with pytest.raises(TypeError):
        eval_derivative_point(dyadic, quarter, (1,), 0.3, growth_bound=1.0)
    for flag in ("osc", "separating"):
        with pytest.raises(TypeError):
            IFSystem(branches=dyadic.branches, open_set=dyadic.open_set,
                     **{flag: True})
    assert validated(dyadic) is dyadic
    with pytest.raises(ConfigurationError):
        validated(affine_system((2.0, 2.0), (0.0, -0.5), (0.0, 1.0)))
    # the weights 0.25 give their own spectrum, not that of another curve
    assert spectrum(dyadic, quarter, [1.0])[0].g == 0.9499555271883307


HUGE = Fraction(10 ** 400)      # past the double range
TWO, ZERO, ONE = Fraction(2), Fraction(0), Fraction(1)


@pytest.mark.parametrize("slopes, intercepts, open_set", [
    ((2.0, 2.0), (0.0, -1.0), (0.0, math.inf)),
    ((math.inf, 2.0), (0.0, -1.0), (0.0, 1.0)),
    ((HUGE, TWO), (ZERO, -ONE), (ZERO, ONE)),
    ((TWO, TWO), (ZERO, -HUGE), (ZERO, ONE)),
    ((TWO, TWO), (ZERO, -ONE), (ZERO, HUGE)),
])
def test_validate_rejects_non_finite_numbers(slopes, intercepts, open_set):
    """An infinite open-set end makes the float slack infinite, so (0, inf)
    and (0.5, inf) passed as a touch; an infinite slope collapsed window 1
    to (0, 0); a Fraction past the double range raised OverflowError.  All
    are configuration errors."""
    with pytest.raises(ConfigurationError, match="must be finite"):
        validate(affine_system(slopes, intercepts, open_set))


def test_validate_rational_is_exact():
    """Fraction preimages are compared exactly: a gap or an overlap of
    1e-15 is one, not a touch."""
    def grade(shift):
        system = affine_system((Fraction(2), Fraction(2)),
                               (Fraction(0), Fraction(-1) + shift),
                               (Fraction(0), Fraction(1)))
        return [name for name, _, _ in validate(system).checks
                if name.startswith("preimages 1,2")]

    tiny = Fraction(1, 10 ** 15)
    assert grade(Fraction(0)) == ["preimages 1,2 touch"]
    assert grade(-tiny) == ["preimages 1,2 separated"]
    assert grade(tiny) == ["preimages 1,2 disjoint"]


def test_validate_flags_bad_weights(dyadic):
    # a vector is refused where it is built, so validate never sees one
    for weights in [(1.2, -0.2), (0.3, 0.3),
                    (Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10 ** 12))]:
        with pytest.raises(ConfigurationError):
            ProbVector(weights)
    with pytest.raises(ConfigurationError, match="3 weights for 2 branches"):
        validate(dyadic, ProbVector.of(0.2, 0.3))


def test_validate_keeps_one_report_per_system_value(dyadic):
    # equal systems built apart share one report
    twin = affine_system((2.0, 2.0), (0.0, -1.0), (0.0, 1.0))
    assert twin is not dyadic and validate(twin) is validate(dyadic)
    # the weights are checked on every call, after a memo hit too
    with pytest.raises(ConfigurationError, match="3 weights for 2 branches"):
        validate(twin, ProbVector.of(0.2, 0.3))
    # a system that fails raises on every call and stores nothing
    bad = affine_system((2.0,), (0.0,), (0.0, 1.0))
    for _ in range(2):
        with pytest.raises(ConfigurationError, match="two branches"):
            validate(bad)
    assert bad._key not in _TABLES


def _unit_grid():
    return GridFunction(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 9),
                        boundary_left=0.0, boundary_right=1.0)


# every public function that reads weights, called on a system and a
# vector; `order` has one entry per free weight of the system
WEIGHT_READERS = {
    "eval_cdf": lambda s, p, order: eval_cdf(s, p, 0.7),
    "cdf_values": lambda s, p, order: cdf_values(s, p, [0.3, 0.7]),
    "phi": lambda s, p, order: phi(s, p, 0.7),
    "eval_derivative_point": lambda s, p, order: eval_derivative_point(
        s, p, order, 0.7, depth=8),
    "cylinder_increment": lambda s, p, order: cylinder_increment(
        s, p, (1, 2), order),
    "derivative_grids": lambda s, p, order: derivative_grids(
        s, p, order, np.linspace(0.0, 1.0, 9), terms=4),
    "apply_transition": lambda s, p, order: apply_transition(
        s, p, _unit_grid()),
    "iterate_transition": lambda s, p, order: iterate_transition(
        s, p, _unit_grid(), n_max=3),
    "gap_probe": lambda s, p, order: gap_probe(
        s, p, 0.5, n_max=3, grid_size=9, probe_words=0),
    "conjugacy_residual": lambda s, p, order: conjugacy_residual(s, p, 4),
    "ergodic_sums": lambda s, p, order: ergodic_sums(s, p, (1, 2)),
    "dyn_exponent": lambda s, p, order: dyn_exponent(s, p, (1, 2, 1)),
    "pressure": lambda s, p, order: pressure(s, p, 1.0, 1.0),
    "solve_pressure_root": lambda s, p, order: solve_pressure_root(
        s, p, 1.0),
    "alpha_endpoints": lambda s, p, order: alpha_endpoints(s, p),
    "spectrum": lambda s, p, order: spectrum(s, p, [1.0]),
    "sample_typical": lambda s, p, order: sample_typical(
        s, p, 1.0, word_len=4, count=2),
    "spectrum_experiment": lambda s, p, order: spectrum_experiment(
        s, p, [1.0], word_len=4, count=2),
    "rigidity_report": lambda s, p, order: rigidity_report(
        s, p, sample_count=4, grid_sizes=(9,)),
}


@pytest.mark.parametrize("name", sorted(WEIGHT_READERS))
@pytest.mark.parametrize("case", ["3-on-dyadic", "2-on-gaps3"])
def test_weight_count_mismatch_raises(name, case, dyadic):
    # a vector with a weight too many or too few used to be read past its
    # end or broadcast against the branches, and return a wrong number
    gaps3 = affine_system((4.0, 3.0, 4.0), (0.0, -1.0, -3.0), (0.0, 1.0))
    system, p, message = {
        "3-on-dyadic": (dyadic, ProbVector.of(0.2, 0.3),
                        "got 3 weights for 2 branches"),
        "2-on-gaps3": (gaps3, ProbVector.of(0.25),
                       "got 2 weights for 3 branches"),
    }[case]
    order = (1,) + (0,) * (system.branch_count - 2)
    with pytest.raises(ConfigurationError, match=message):
        WEIGHT_READERS[name](system, p, order)


@settings(max_examples=300, deadline=None)
@given(raw=st.lists(st.floats(2.0 ** -40, 1.0), min_size=2, max_size=8),
       exact=st.booleans())
def test_of_builds_every_vector_in_range(raw, exact):
    """`of` derives the last weight as 1 minus the others, so its vector
    meets the constructor's sum check whenever that weight lies in (0, 1)."""
    total = math.fsum(raw)
    free = [Fraction(r) / Fraction(total) if exact else r / total
            for r in raw[:-1]]
    last = (Fraction(1) if exact else 1) - sum(free)
    assume(all(0 < w < 1 for w in free) and 0 < last < 1)
    assert ProbVector.of(*free).weights == (*free, last)


def test_json_roundtrip(dyadic, quarter):
    doc = system_to_json(dyadic, quarter)
    system, p, mode = system_from_json(doc)
    assert mode == "float"
    assert p.free == (0.25,)
    assert attractor_hull(system) == (0.0, 1.0)


def test_json_rejects_unknown_keys(dyadic, quarter):
    doc = system_to_json(dyadic, quarter)
    doc["extra"] = 1
    with pytest.raises(ConfigurationError):
        system_from_json(doc)
    doc.pop("extra")
    doc["branches"][0]["label"] = "x"
    with pytest.raises(ConfigurationError):
        system_from_json(doc)


def test_json_rational_mode():
    doc = {
        "branches": [{"slope": 2, "intercept": 0},
                     {"slope": 2, "intercept": -1}],
        "open_set": [0, 1],
        "p": ["1/3"],
        "mode": "rational",
    }
    system, p, mode = system_from_json(doc)
    assert mode == "rational"
    assert p.weights == (Fraction(1, 3), Fraction(2, 3))
    assert system.is_rational


def test_json_rational_mode_reads_the_double_a_float_names():
    """Rational mode reads the JSON float 0.3 as the double it denotes, not
    as 3/10, which is written "3/10"."""
    doc = {"branches": [{"slope": 2, "intercept": 0},
                        {"slope": 2, "intercept": -1}],
           "open_set": [0, 1], "p": [0.3], "mode": "rational"}
    _, p, _ = system_from_json(doc)
    assert p.free == (Fraction(5404319552844595, 18014398509481984),)
    assert p.free == (Fraction(0.3),) and p.free != (Fraction(3, 10),)
    _, p, _ = system_from_json(dict(doc, p=["3/10"]))
    assert p.free == (Fraction(3, 10),)


def test_json_refuses_exponents_beyond_9999():
    """A numeric string's decimal exponent must lie within +-9999, so that
    Fraction never expands a huge power of ten; both modes."""
    doc = {"branches": [{"slope": 2, "intercept": 0},
                        {"slope": 2, "intercept": -1}],
           "open_set": [0, 1], "p": ["1/4"], "mode": "rational"}
    _, p, _ = system_from_json(dict(doc, p=["25e-2"]))
    assert p.free == (Fraction(1, 4),)
    _, p, _ = system_from_json(dict(doc, p=["1e-9999"]))
    assert p.free == (Fraction(1, 10 ** 9999),)
    for mode in ("float", "rational"):
        for bad in ("1e-10000", "1E+10000", "1e-999_999_999", "2.5e99999"):
            with pytest.raises(ConfigurationError, match="9999"):
                system_from_json(dict(doc, mode=mode, p=[bad]))


def test_ergodic_sums_affine(dyadic, quarter):
    s_phi, s_psi = ergodic_sums(dyadic, quarter, (1, 2, 2))
    assert s_phi[2] == pytest.approx(-3 * math.log(2))
    assert s_psi[2] == pytest.approx(math.log(0.25) + 2 * math.log(0.75))


def _gaps3(num):
    return affine_system((num(4), num(3), num(4)), (num(0), num(-1), num(-3)),
                         (num(0), num(1)))


# the three kinds of arithmetic of the word kernels: float columns, exact
# Fractions word by word, and float calls of non-affine branches
WORD_SYSTEMS = {
    "float": (_gaps3(float), ProbVector.of(0.25, 0.5)),
    "fraction": (_gaps3(Fraction),
                 ProbVector.of(Fraction(1, 4), Fraction(1, 2))),
    "bent": (bent_system(), ProbVector.of(0.25)),
}


def test_ergodic_sums_match_suffix_cylinders(quarter):
    # a quadratic left branch: derivatives at the midpoint of each suffix
    # cylinder, as pi_approx defines it; affine systems take their slopes
    cases = [(bent_system(), quarter)] + [WORD_SYSTEMS[k]
                                          for k in ("float", "fraction")]
    rng = np.random.default_rng(3)
    for (system, p), n in itertools.product(cases, (1, 2, 50)):
        word = tuple(int(s) for s in
                     rng.integers(1, system.branch_count + 1, size=n))
        s_phi, s_psi, tphi, tpsi = [], [], 0.0, 0.0
        for k, sym in enumerate(word):
            mid = pi_approx(system, word[k:])[0]
            tphi -= math.log(system.branch(sym).derivative(mid))
            tpsi += math.log(p[sym])
            s_phi.append(tphi)
            s_psi.append(tpsi)
        assert ergodic_sums(system, p, word) == (s_phi, s_psi)


@pytest.mark.parametrize("name", sorted(WORD_SYSTEMS))
def test_suffix_midpoints_are_suffix_cylinder_midpoints(name):
    system, _ = WORD_SYSTEMS[name]
    rng = np.random.default_rng(11)
    for m, n in ((1, 1), (3, 2), (5, 40), (0, 4), (2, 0)):
        words = rng.integers(1, system.branch_count + 1, size=(m, n))
        mids = _suffix_midpoints(system, words)
        assert mids.shape == (m, n)
        for w, row in zip(words.tolist(), mids.tolist()):
            for k, mid in enumerate(row):
                want = pi_approx(system, w[k:])[0]
                assert type(mid) is type(want) and mid == want, (w, k)


WORD_FUNCTIONS = {
    "cylinder": lambda system, p, word: cylinder(system, word),
    "pi_approx": lambda system, p, word: pi_approx(system, word),
    "mass": lambda system, p, word: p.mass(word),
    "ergodic_sums": ergodic_sums,
    "dyn_exponent": dyn_exponent,
}


@pytest.mark.parametrize("name", sorted(WORD_FUNCTIONS))
@pytest.mark.parametrize("bad", [0, -1, 3, 1.5])
def test_out_of_range_symbols_raise(name, bad):
    # symbol 0 and -1 used to index from the end, 1.5 to truncate to 1
    system = affine_system((2.0, 3.0), (0.0, -2.0), (0.0, 1.0))
    p = ProbVector.of(0.3)
    call = WORD_FUNCTIONS[name]
    call(system, p, (1, np.int64(2), 2))
    with pytest.raises(ValueError, match="symbols must"):
        call(system, p, (1, bad, 2))


def test_distortion_constant_affine(dyadic):
    assert distortion_constant(dyadic, depth=6) == 1.0


def test_distortion_constant_nonaffine(bent):
    """Bounded distortion on the bent system: |f''/f'| <= 2/3 on (0, 1),
    and the orbits of two points of a depth-n cylinder stay in cylinders
    of depths n, .., 1, at most (2/3)^depth wide, so the log of every ratio
    is at most 2/3 * sum_m (2/3)^m = 4/3."""
    system = bent
    values = [distortion_constant(system, depth) for depth in range(1, 9)]
    assert values[0] > 1.0
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] < math.exp(4 / 3)
    assert distortion_constant(system, 8) == values[-1]


def test_distortion_constant_samples_long_words(bent, monkeypatch):
    # 2^13 words of length 13 are more than 4096, so that length draws 4096
    # words from random.Random(7) instead of enumerating them (about 0.8 s
    # on a 2-core Xeon VM)
    lengths = Counter()
    enumerated = distortion_constant(bent, 8)

    def counted(system, word):
        lengths[len(word)] += 1
        return cylinder(system, word)

    monkeypatch.setattr("holderlab.ifs.cylinder", counted)
    value = distortion_constant(bent, 13)
    assert lengths == {n: min(2 ** n, 4096) for n in range(1, 14)}
    assert enumerated <= value < math.exp(4 / 3)


def test_compactified_metric():
    assert compactify(0.0) == 0.0
    assert compactify(float("inf")) == 1.0
    assert compactify(-3.0) == -0.75
    xs = np.array([-math.inf, -3.0, -1e-300, 0.0, 0.1, 1e300, math.inf])
    got = compactify(xs)
    assert got.tolist() == [compactify(float(x)) for x in xs]
    assert got[0] == -1.0 and got[-1] == 1.0
    assert compactified_distance(1.0, 1.0) == 0.0
    d = compactified_distance(0.0, 1.0)
    assert 0 < d < 1.0


# every count a public function refuses below a least value, passed value
# in a call that is valid otherwise (`ifs._checked_least`)
COUNTS = {
    ("encode", "depth"): lambda s, p, v: encode(s, 0.3, v),
    ("distortion_constant", "depth"):
        lambda s, p, v: distortion_constant(s, v),
    ("eval_cdf", "max_depth"): lambda s, p, v: eval_cdf(s, p, 0.3,
                                                         max_depth=v),
    ("cdf_values", "max_depth"): lambda s, p, v: cdf_values(s, p, [0.3],
                                                            max_depth=v),
    ("eval_derivative_point", "depth"):
        lambda s, p, v: eval_derivative_point(s, p, (1,), 0.3, depth=v),
    ("uniform_grid", "size"): lambda s, p, v: uniform_grid(s, v),
    ("iterate_transition", "n_max"):
        lambda s, p, v: iterate_transition(s, p, _unit_grid(), n_max=v),
    **{("gap_probe", name): lambda s, p, v, name=name: gap_probe(
        s, p, 0.5, **dict(dict(n_max=3, grid_size=9, probe_words=0, seed=0),
                          **{name: v}))
       for name in ("n_max", "grid_size", "probe_words", "seed")},
    **{("conjugacy_residual", name): lambda s, p, v, name=name:
       conjugacy_residual(s, p, **dict(dict(sample_count=4, seed=0),
                                       **{name: v}))
       for name in ("sample_count", "seed")},
    **{(entry.__name__, name):
       lambda s, p, v, entry=entry, args=args, name=name: entry(
           s, p, *args, **dict(dict(word_len=4, count=2, seed=0),
                               **{name: v}))
       for entry, args in ((sample_typical, (1.0,)),
                           (spectrum_experiment, ([1.0],)))
       for name in ("count", "word_len", "seed")},
}


def test_counts_and_depths_must_be_integers(dyadic):
    # 10.5 once walked 10 symbols (eval_cdf, encode, and
    # eval_derivative_point, which sized its bound with 10.5) or raised
    # numpy's or range's TypeError, which named no argument
    p = ProbVector.of(0.3)
    for (entry, name), call in COUNTS.items():
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call(dyadic, p, 10.5)
        call(dyadic, p, 10 if name != "seed" else 7)
    # and the table names every check in the package
    src = Path(encode.__code__.co_filename).parent
    checks = [m for path in src.glob("*.py")
              for m in re.findall(r'_checked_least\("(\w+)"',
                                  path.read_text())]
    assert sorted(checks) == sorted(name for _, name in COUNTS)
