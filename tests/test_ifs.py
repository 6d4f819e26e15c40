import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holderlab import (
    Branch,
    ConfigurationError,
    EncodeResult,
    IFSystem,
    OutsideHullError,
    PressureCurve,
    ProbVector,
    affine_system,
    attractor_hull,
    cdf_values,
    compactified_distance,
    compactify,
    cylinder,
    distortion_constant,
    dyn_exponent,
    encode,
    ergodic_sums,
    eval_cdf,
    eval_derivative_point,
    phi,
    pi_approx,
    spectrum,
    system_from_json,
    system_to_json,
    validate,
    validated,
)
from holderlab.ifs import _suffix_midpoints


def test_affine_branch_roundtrip():
    b = Branch.affine(2.0, -1.0)
    assert b(0.75) == 0.5
    assert b.inverse(0.5) == 0.75
    assert b.derivative(0.3) == 2.0
    assert b.is_affine


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
        assert value - 1e-6 < phi(dyadic, quarter, x, tol=1e-6) < value
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
    assert p.free == (0.25,)
    assert p.mass((1, 2)) == pytest.approx(0.1875)
    assert p.left_mass(2) == pytest.approx(0.25)
    assert not p.is_rational
    pr = ProbVector((Fraction(1, 4), Fraction(3, 4)))
    assert pr.is_rational
    assert pr.mass((1, 2)) == Fraction(3, 16)
    assert pr.as_floats().weights == (0.25, 0.75)


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
    rep = validate(dyadic, ProbVector((1.2, -0.2)))
    assert not rep.ok


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


def test_ergodic_sums_affine(dyadic, quarter):
    s_phi, s_psi = ergodic_sums(dyadic, quarter, (1, 2, 2))
    assert s_phi[2] == pytest.approx(-3 * math.log(2))
    assert s_psi[2] == pytest.approx(math.log(0.25) + 2 * math.log(0.75))


def _bent():
    """A quadratic left branch 2.5x - 0.5x^2 and the affine 2x - 1, both as
    callables."""
    return IFSystem(branches=(
        Branch.custom(fn=lambda x: 2.5 * x - 0.5 * x * x,
                      dfn=lambda x: 2.5 - x,
                      inv=lambda y: 2.5 - math.sqrt(6.25 - 2.0 * y)),
        Branch.custom(fn=lambda x: 2 * x - 1, dfn=lambda x: 2.0,
                      inv=lambda y: (y + 1) / 2)),
        open_set=(0.0, 1.0), expansion=1.5)


def _gaps3(num):
    return affine_system((num(4), num(3), num(4)), (num(0), num(-1), num(-3)),
                         (num(0), num(1)))


# the three kinds of arithmetic of the word kernels: float columns, exact
# Fractions word by word, and float calls of non-affine branches
WORD_SYSTEMS = {
    "float": (_gaps3(float), ProbVector.of(0.25, 0.5)),
    "fraction": (_gaps3(Fraction),
                 ProbVector.of(Fraction(1, 4), Fraction(1, 2))),
    "bent": (_bent(), ProbVector.of(0.25)),
}


def test_ergodic_sums_match_suffix_cylinders(quarter):
    # a quadratic left branch: derivatives at the midpoint of each suffix
    # cylinder, as pi_approx defines it; affine systems take their slopes
    cases = [(_bent(), quarter)] + [WORD_SYSTEMS[k] for k in ("float",
                                                              "fraction")]
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
