"""The coding tables behind the scalar walks: exact walks at rational points
against a reference Fraction walk, the tables shared by equal systems, and the
per-point fallback of the array walk for branch maps that reject arrays."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holderlab import (
    Branch,
    ConfigurationError,
    IFSystem,
    ProbVector,
    affine_system,
    attractor_hull,
    cdf_values,
    cylinder_increment,
    encode,
    eval_cdf,
    eval_derivative_point,
    phi,
    validated,
)
from holderlab.ifs import _LATTICE_TABLES, _SYSTEM_TABLES, _TABLES, \
    _system_tables, hull_preimages

# (slopes, intercepts, open set) of rational systems; "half" has a rational
# intercept and "threehalves" a non-integer slope, which keeps its walk on
# Fractions
SYSTEMS = {
    "dyadic": ((2, 2), (0, -1), (0, 1)),
    "cantor": ((3, 3), (0, -2), (0, 1)),
    "gaps3": ((4, 3, 4), (0, -1, -3), (0, 1)),
    "half": ((2, 2), (0, F(-1, 2)), (0, F(1, 2))),
    "threehalves": ((F(3, 2), 3), (0, -2), (0, 1)),
}


def rational_system(name):
    slopes, intercepts, open_set = SYSTEMS[name]
    return affine_system(tuple(F(a) for a in slopes),
                         tuple(F(b) for b in intercepts),
                         tuple(F(v) for v in open_set))


def reference_steps(name, x, depth):
    """(y, k, gap) per step of the coding walk of x, in Fractions straight
    from the branch formulas: k is the 0-based first window with y <= v."""
    slopes, intercepts, _ = SYSTEMS[name]
    maps = [(F(a), F(b)) for a, b in zip(slopes, intercepts)]
    lo = maps[0][1] / (1 - maps[0][0])
    hi = maps[-1][1] / (1 - maps[-1][0])
    windows = [((lo - b) / a, (hi - b) / a) for a, b in maps]
    y = x
    for _ in range(depth):
        k = next((i for i, (_, v) in enumerate(windows) if y <= v),
                 len(windows))
        gap = k == len(windows) or y < windows[k][0]
        yield y, k, gap
        if gap:
            return
        a, b = maps[k]
        y = a * y + b


def reference_cdf(name, p, x, tol):
    w = [F(v) for v in p.weights]
    slopes, intercepts, _ = SYSTEMS[name]
    lo = F(intercepts[0]) / (1 - F(slopes[0]))
    hi = F(intercepts[-1]) / (1 - F(slopes[-1]))
    if x <= lo:
        return F(0), 0.0
    if x >= hi:
        return F(1), 0.0
    acc, mass = F(0), F(1)
    for y, k, gap in reference_steps(name, x, 100_000):
        if float(mass) <= tol:
            break
        if y == lo:
            return acc, 0.0
        if y == hi:
            return acc + mass, 0.0
        acc += mass * sum(w[:k])
        if gap:
            return acc, 0.0
        mass *= w[k]
    return acc, float(mass)


def reference_encode(name, x, depth):
    word = []
    for _, k, gap in reference_steps(name, x, depth):
        if gap:
            return tuple(word), True
        word.append(k + 1)
    return tuple(word), False


@st.composite
def exact_cases(draw):
    name = draw(st.sampled_from(sorted(SYSTEMS)))
    system = rational_system(name)
    # shares of 1 to 9 keep every weight at most 9/10, and the tol-1e-12
    # walks a few hundred steps long
    shares = draw(st.lists(st.integers(1, 9), min_size=system.branch_count,
                           max_size=system.branch_count))
    den, free = sum(shares), shares[:-1]
    p = ProbVector.of(*[F(k, den) for k in free])
    a, b = attractor_hull(system)
    x = draw(st.fractions(min_value=a - F(1, 10), max_value=b + F(1, 10),
                          max_denominator=1000))
    return name, system, p, x


@given(exact_cases())
@settings(max_examples=120, deadline=None)
def test_exact_walk_matches_reference(case):
    name, system, p, x = case
    for tol in (1e-12, 1e-6):
        value, bound = eval_cdf(system, p, x, tol=tol)
        ref_value, ref_bound = reference_cdf(name, p, x, tol)
        assert value == ref_value and bound == ref_bound
        assert type(value) is F and type(bound) is float
    a, b = attractor_hull(system)
    if a <= x <= b:
        result = encode(system, x, 40)
        assert (result.word, result.gap) == reference_encode(name, x, 40)
        value = phi(system, p, x)
        ref_value, ref_bound = reference_cdf(name, p, x, 1e-12)
        assert value == ref_value + F(ref_bound) / 2 and type(value) is F


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_exact_walk_at_cylinder_endpoints(name):
    """Cylinder endpoints park on a hull endpoint: bound 0 either way, and
    phi returns the exact cdf value wherever the bound is 0."""
    system = rational_system(name)
    p = ProbVector.of(*[F(1, system.branch_count)] * (system.branch_count - 1))
    for u, v in hull_preimages(system):
        for x in (u, v, (u + v) / 2, u + (v - u) / 7):
            value, bound = eval_cdf(system, p, x)
            assert (value, bound) == reference_cdf(name, p, x, 1e-12)
            if bound == 0:
                coordinate = phi(system, p, x)
                assert coordinate == value and type(coordinate) is F


def test_float_and_exact_twins_keep_their_types():
    """A float system and weight vector equal to (and hashing like) their
    exact twins never share a cached table: evaluated alternately, each
    returns its own type."""
    fs = affine_system((2.0, 3.0), (0.0, -2.0), (0.0, 1.0))
    rs = affine_system((F(2), F(3)), (F(0), F(-2)), (F(0), F(1)))
    fp, rp = ProbVector.of(0.25), ProbVector.of(F(1, 4))
    assert fs == rs and hash(fs) == hash(rs)
    assert fp == rp and hash(fp) == hash(rp)
    for _ in range(3):
        for x in (F(1, 3), F(5, 7)):
            value, _ = eval_cdf(fs, fp, float(x))
            assert type(value) is float
            value, _ = eval_cdf(rs, rp, x)
            assert type(value) is F
            assert type(phi(fs, fp, float(x))) is float
            assert type(phi(rs, rp, x)) is F
            value, _ = eval_derivative_point(fs, fp, (1,), float(x), depth=20)
            assert type(value) is float  # plain float rows, no numpy
            value, _ = eval_derivative_point(rs, rp, (1,), x, depth=20)
            assert type(value) is F
        assert type(attractor_hull(fs)[0]) is float
        assert type(attractor_hull(rs)[0]) is F
    # a float system with exact weights is not exact: floats everywhere,
    # the hull returns included
    dyadic = affine_system((2.0, 2.0), (0.0, -1.0), (0.0, 1.0))
    for x in (-0.5, 0.3, 1.5):
        value, _ = eval_cdf(dyadic, rp, x)
        assert type(value) is float
    assert type(phi(dyadic, rp, 0.3)) is float
    # and its derivative walk runs on the float twin of the weights
    for x in (0.3, 0.75, 1 / 3):
        exact_weights = eval_derivative_point(dyadic, rp, (1,), x)
        float_weights = eval_derivative_point(dyadic, fp, (1,), x)
        assert exact_weights == float_weights
        assert [type(v) for v in exact_weights] == \
            [type(v) for v in float_weights]
    # as do its cylinder increments
    for word in ((1, 2), (2, 1, 1)):
        exact_weights = cylinder_increment(dyadic, rp, word).entries
        float_weights = cylinder_increment(dyadic, fp, word).entries
        assert exact_weights.dtype == float_weights.dtype == float
        assert np.array_equal(exact_weights, float_weights)


def test_lattice_memo_starts_over_when_full():
    """Each lattice scale of a rational walk keeps one integer table in the
    system's entry; past _LATTICE_TABLES scales that memo is emptied and
    refilled, and every value still equals that of a walk that starts from
    an empty memo."""
    system = rational_system("cantor")
    p = ProbVector.of(F(1, 4))
    xs = [F(1, d) for d in range(3, 73)]
    expect = []
    for x in xs:
        _TABLES.clear()
        expect.append(eval_cdf(system, p, x))
    _TABLES.clear()
    assert [eval_cdf(system, p, x) for x in xs] == expect
    assert len(_system_tables(system)["lattice"]) == len(xs) - _LATTICE_TABLES


def coding_tables(system):
    """The coding tables of the walks kept per system value: the system's
    own and its one-symbol region table, and the one-symbol float table."""
    return system._coding, system._coding.table, system._step


def shared(s, t):
    """Whether two systems hold the same coding tables, or none alike."""
    pairs = [u is v for u, v in zip(coding_tables(s), coding_tables(t))]
    assert all(pairs) or not any(pairs)
    return all(pairs)


def test_float_and_exact_twins_never_share_tables():
    """The exact cantor system and its float twin compare equal and hash
    alike, yet only the exact one has a lattice: each keeps its own entry,
    and the exact walk at 1/3 stays exact after the float one has run."""
    fs = affine_system((3.0, 3.0), (0.0, -2.0), (0.0, 1.0))
    rs = rational_system("cantor")
    assert fs == rs and hash(fs) == hash(rs)
    assert _system_tables(fs) is not _system_tables(rs)
    assert not shared(fs, rs)
    # the float twin's edges are rounded, the exact ones are not
    assert fs._coding.table[0] != rs._coding.table[0]
    p = ProbVector.of(F(1, 4))
    assert eval_cdf(fs, p, 1 / 3) == (0.25, 0.0)
    value, bound = eval_cdf(rs, p, F(1, 3))
    assert (value, bound) == (F(1, 4), 0.0) and type(value) is F
    assert "lattice" in _system_tables(rs)
    assert "lattice" not in _system_tables(fs)


def test_signed_zero_intercepts_never_share_tables():
    """Intercepts 0.0 and -0.0 compare equal, but a table keyed by the
    system's typed value keeps them apart; the values agree bit for bit."""
    xs = np.linspace(-0.25, 1.25, 97)
    p = ProbVector.of(0.3)
    plus = affine_system((2.0, 2.0), (0.0, -1.0), (0.0, 1.0))
    minus = affine_system((2.0, 2.0), (-0.0, -1.0), (0.0, 1.0))
    assert plus == minus and hash(plus) == hash(minus)
    assert _system_tables(plus) is not _system_tables(minus)
    assert not shared(plus, minus)
    assert np.array_equal(cdf_values(plus, p, xs), cdf_values(minus, p, xs))
    assert _system_tables(plus)["cylinders"] is not \
        _system_tables(minus)["cylinders"]


def test_system_memo_starts_over_when_full():
    """Equal systems share one entry; past _SYSTEM_TABLES distinct systems
    the memo is emptied and refilled, and no value changes."""
    xs = np.linspace(-0.25, 1.25, 97)
    p = ProbVector.of(0.3)
    # one hull and one walk, _SYSTEM_TABLES + 1 open sets
    systems = [affine_system((2.0, 2.0), (0.0, -1.0), (0.0, 1.0 + k / 64))
               for k in range(_SYSTEM_TABLES + 1)]
    _TABLES.clear()
    expect = cdf_values(systems[0], p, xs)
    first = _system_tables(systems[0])["cylinders"]
    twin = affine_system((2.0, 2.0), (0.0, -1.0), (0.0, 1.0))
    assert _system_tables(twin)["cylinders"] is first
    # and the coding tables of both walks, the L-symbol one included
    assert shared(twin, systems[0])
    assert twin._cylinders is first
    assert twin._float_walk is systems[0]._float_walk \
        is _system_tables(twin)["walk"] is not twin._coding.table
    for system in systems[1:]:
        assert np.array_equal(cdf_values(system, p, xs), expect)
    assert list(_TABLES) == [systems[-1]._key]
    assert np.array_equal(cdf_values(systems[0], p, xs), expect)
    assert _system_tables(systems[0])["cylinders"] is not first


def test_hull_preimages_returns_a_fresh_list(cantor):
    pre = hull_preimages(cantor)
    expect = list(pre)
    pre[0] = (0.9, 0.95)
    pre.append((2.0, 3.0))
    assert hull_preimages(cantor) == expect
    assert encode(cantor, 0.1, 3).word == (1, 1, 2)


def test_degenerate_hull_raises_every_time():
    # both branches fix 0, so the hull is a single point
    system = affine_system((2.0, 3.0), (0.0, 0.0), (0.0, 1.0))
    for _ in range(2):
        for call in (lambda: attractor_hull(system),
                     lambda: hull_preimages(system),
                     lambda: eval_cdf(system, ProbVector.of(0.5), 0.3),
                     lambda: encode(system, 0.3, 4),
                     lambda: cdf_values(system, ProbVector.of(0.5), [0.3])):
            with pytest.raises(ConfigurationError, match="degenerate"):
                call()


def _sqrt_branch():
    # sqrt(8x + 1) - 1 maps [0, 3/8] onto [0, 1] with slope 4 down to 2
    return Branch.custom(lambda x: math.sqrt(8.0 * x + 1.0) - 1.0,
                         lambda x: 4.0 / math.sqrt(8.0 * x + 1.0),
                         lambda y: ((y + 1.0) ** 2 - 1.0) / 8.0)


def _if_branch():
    # slope 2 up to 1/4, then slope 3: maps [0, 5/12] onto [0, 1]
    def fn(x):
        if x <= 0.25:
            return 2.0 * x
        return 3.0 * x - 0.25

    return Branch.custom(fn, lambda x: 2.0 if x <= 0.25 else 3.0,
                         lambda y: y / 2.0 if y <= 0.5 else (y + 0.25) / 3.0)


def _array_branch(calls):
    def fn(x):
        calls.append(isinstance(x, np.ndarray))
        return 2.5 * x - 0.5 * x * x

    return Branch.custom(fn, lambda x: 2.5 - x,
                         lambda y: 2.5 - math.sqrt(6.25 - 2.0 * y))


@pytest.mark.parametrize("make", [_sqrt_branch, _if_branch])
def test_nonaffine_cdf_values_falls_back_per_point(make):
    right = Branch.custom(lambda x: 2.0 * x - 1.0, lambda x: 2.0,
                          lambda y: (y + 1.0) / 2.0)
    system = validated(IFSystem(branches=(make(), right), open_set=(0.0, 1.0),
                                expansion=1.25))
    p = ProbVector.of(0.3)
    nodes = np.linspace(-0.2, 1.2, 301)
    vals = cdf_values(system, p, nodes)
    assert vals.tolist() == [eval_cdf(system, p, x)[0] for x in nodes.tolist()]


def test_nonaffine_cdf_values_calls_array_maps_on_arrays():
    calls = []
    right = Branch.custom(lambda x: 2.0 * x - 1.0, lambda x: 2.0,
                          lambda y: (y + 1.0) / 2.0)
    system = validated(IFSystem(branches=(_array_branch(calls), right),
                                open_set=(0.0, 1.0), expansion=1.5))
    p = ProbVector.of(0.4)
    nodes = np.linspace(-0.2, 1.2, 401)
    attractor_hull(system)  # the hull search calls fn on scalars, once
    calls.clear()
    vals = cdf_values(system, p, nodes)
    assert calls and all(calls) and len(calls) < nodes.size
    assert vals.tolist() == [eval_cdf(system, p, x)[0] for x in nodes.tolist()]
