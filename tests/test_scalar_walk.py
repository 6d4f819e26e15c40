"""The scalar coding walk `_walk` behind `encode`, `eval_cdf`, `phi` and
`eval_derivative_point`: on every table it reads (float systems whose
L-symbol table composes or replays their float steps, rational and float
points on lattice and non-lattice rational systems, custom branches) its
events are those of the window rule, written out here as a reference in
the table's own arithmetic; on an affine float system it takes L symbols
per lookup, and a last lookup that holds more symbols than are left
yields the first of them, so every output keeps the bits of the
one-symbol walk; a negative depth is refused by every entry point, with
and without that table."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bent_system
from holderlab import (
    OutsideHullError,
    ProbVector,
    affine_system,
    attractor_hull,
    cdf_values,
    cylinder,
    distortion_constant,
    encode,
    eval_cdf,
    eval_derivative_point,
    growth_constant,
    phi,
    step_matrix,
)
from holderlab import ifs
from holderlab.ifs import _coding_for, _walk, hull_preimages
from holderlab.takagi import _parked_tail
from test_array_walk import EXACT_STEP, _exact_step_system, _level_breakpoints
from test_walk_tables import rational_system

CANTOR = affine_system((3.0, 3.0), (0.0, -2.0), (0.0, 1.0))


def reference_events(system, x, depth):
    """The one-symbol walk of x, one rule per symbol: park -1 or 1 on the
    left or right hull end, sym the first window whose right edge is at or
    right of y (one past the last right of them all), a gap when that
    window starts right of y, which ends the walk; else y -> f_sym(y).

    It runs in the system's own numbers: a float system compares with float
    edges and maps in floats, a rational one walks x exactly, a float x as
    the Fraction it equals."""
    a, b = attractor_hull(system)
    windows = hull_preimages(system)
    y = Fraction(x) if system.is_rational else x
    for _ in range(depth):
        sym = next((k for k, (_, v) in enumerate(windows, 1) if y <= v),
                   len(windows) + 1)
        park = -1 if y == a else 1 if y == b else 0
        gap = sym > len(windows) or not windows[sym - 1][0] <= y
        yield park, sym, gap
        if gap:
            return
        y = system.branch(sym)(y)


def reference_cdf(system, p, x, tol, depth):
    """eval_cdf's accumulation in floats over the reference events."""
    a, b = (float(t) for t in attractor_hull(system))
    if x <= a:
        return 0.0, 0.0
    if x >= b:
        return 1.0, 0.0
    acc, mass = 0.0, 1.0
    for park, sym, gap in reference_events(system, x, depth):
        if mass <= tol:
            break
        if park:
            acc, mass = (acc + mass if park > 0 else acc), 0.0
            break
        acc = acc + mass * p._left[sym - 1]
        if gap:
            mass = 0.0
            break
        mass = mass * p[sym]
    return acc, mass


def near(t, ulps):
    """The float ulps steps from t (up for ulps > 0, down for ulps < 0)."""
    for _ in range(abs(ulps)):
        t = math.nextafter(t, math.copysign(math.inf, ulps))
    return t


@st.composite
def block_walk_cases(draw):
    """An exact-step system, float weights, and a point: random, a level-L
    breakpoint or a float a few ulps from one, a hull end or outside the
    hull, as a Python float or a numpy float64."""
    name = draw(st.sampled_from(sorted(EXACT_STEP)))
    d = len(EXACT_STEP[name][0])
    cuts = sorted(draw(st.lists(st.floats(0.01, 0.99), min_size=d - 1,
                                max_size=d - 1, unique=True)))
    free = [hi - lo for lo, hi in zip([0.0] + cuts, cuts)]
    if min(free + [1 - sum(free)]) < 0.005:
        free = [1 / d] * (d - 1)
    x = draw(st.one_of(
        st.floats(-0.2, 1.2),
        st.builds(near, st.sampled_from(_level_breakpoints(name)),
                  st.integers(-4, 4)),
        st.sampled_from([0.0, -0.0, 1.0]),
        st.sampled_from([-0.5, -5e-324, near(1.0, 1), 1.5])))
    if draw(st.booleans()):
        x = np.float64(x)
    return dict(name=name, free=tuple(free), x=x)


@settings(max_examples=300, deadline=None)
@given(case=block_walk_cases(), depth=st.integers(0, 30),
       tol=st.sampled_from([1e-2, 1e-3, 1e-5, 1e-9, 1e-12, 1e-300]))
@example(case=dict(name="dyadic", free=(0.3,), x=0.3), depth=19, tol=1e-300)
@example(case=dict(name="gapped", free=(0.75,), x=0.25), depth=12,
         tol=1e-300)
@example(case=dict(name="four", free=(0.1, 0.3, 0.2), x=np.float64(0.75)),
         depth=9, tol=1e-3)
def test_block_walk_keeps_the_one_symbol_bits(case, depth, tol):
    system = _exact_step_system(case["name"])
    p = ProbVector.of(*case["free"])
    x = case["x"]
    table, y = _coding_for(system, x)
    assert table == system._float_walk != system._coding.table
    events = list(reference_events(system, x, depth))
    # the walk eval_derivative_point reads, and the events of every other
    assert list(itertools.chain.from_iterable(_walk(table, y, depth))) \
        == events
    a, b = (float(t) for t in attractor_hull(system))
    if a <= x <= b:
        gap = bool(events) and events[-1][2]
        word = tuple(sym for _, sym, _ in events[:len(events) - gap])
        got = encode(system, x, depth)
        assert (got.word, got.gap) == (word, gap)
        assert all(type(sym) is int for sym in got.word)
        want = reference_cdf(system, p, x, 1e-12, 100_000)
        coordinate = phi(system, p, x)
        assert coordinate == want[0] + want[1] / 2
        assert type(coordinate) is float
    else:
        with pytest.raises(OutsideHullError):
            encode(system, x, depth)
        with pytest.raises(OutsideHullError):
            phi(system, p, x)
    for want, got in ((reference_cdf(system, p, x, tol, depth),
                       eval_cdf(system, p, x, tol=tol, max_depth=depth)),
                      (reference_cdf(system, p, x, tol, 100_000),
                       eval_cdf(system, p, x, tol=tol))):
        assert got == want
        assert [type(v) for v in got] == [float, float]


ENTRY_POINTS = {
    "eval_cdf": lambda s, x, depth: eval_cdf(s, ProbVector.of(0.3), x,
                                             max_depth=depth),
    "cdf_values": lambda s, x, depth: cdf_values(s, ProbVector.of(0.3), [x],
                                                 max_depth=depth),
    "encode": lambda s, x, depth: encode(s, x, depth),
    "eval_derivative_point": lambda s, x, depth: eval_derivative_point(
        s, ProbVector.of(0.3), (1,), x, depth=depth),
    # no walk, but the same refusal: it returned 1.0 for depth -1
    "distortion_constant": lambda s, x, depth: distortion_constant(s, depth),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_refuses_a_negative_depth(entry, dyadic):
    # inside the hull, on its ends and outside it, where eval_cdf and
    # eval_derivative_point return before walking: divmod(-1, 8) is
    # (-1, 7), and a table walk once took 7 one-symbol steps for depth -1
    call = ENTRY_POINTS[entry]
    for x in (0.3, 0.0, 1.0, -0.5, 1.5):
        for depth in (-1, -3, -8, -9):
            with pytest.raises(ValueError, match="depth"):
                call(dyadic, x, depth)


@pytest.mark.parametrize("name", ["dyadic", "cantor", "bent"])
def test_negative_depth_with_and_without_the_table(name):
    # dyadic walks L = 8 composed symbols per lookup, the middle third L = 8
    # replayed ones and the bent system one; depth 0 takes no step on any
    system = {"dyadic": _exact_step_system("dyadic"), "cantor": CANTOR,
              "bent": bent_system()}[name]
    assert _coding_for(system, 0.3)[0] == (system._coding.table
                                           if name == "bent"
                                           else system._float_walk)
    assert (system._float_walk is system._coding.table) == (name == "bent")
    for entry, call in ENTRY_POINTS.items():
        for depth in (-1, -7, -8, -9, -17):
            with pytest.raises(ValueError, match="depth"):
                call(system, 0.3, depth)
    p = ProbVector.of(0.3)
    assert eval_cdf(system, p, 0.3, max_depth=0) == (0.0, 1.0)
    assert cdf_values(system, p, [0.3], max_depth=0).tolist() == [0.0]
    assert encode(system, 0.3, 0).word == ()
    value, bound = eval_derivative_point(system, p, (1,), 0.3, depth=0)
    assert value == 0.0 and bound > 0


def test_one_lookup_per_block_and_one_for_what_is_left():
    # 0.3 on dyadic neither parks nor meets a gap within 48 symbols: a walk
    # of d symbols takes ceil(d / 8) lookups of the L = 8 table, the last
    # one cut to the d mod 8 symbols left, and no one-symbol lookup
    system, x = _exact_step_system("dyadic"), 0.3
    for depth in range(49):
        lookups = list(_walk(*_coding_for(system, x), depth))
        assert len(lookups) == -(-depth // 8), depth
        assert list(itertools.chain.from_iterable(lookups)) \
            == list(reference_events(system, x, depth)), depth
        assert encode(system, x, depth).word \
            == reference_encode(system, x, depth)[0]


def test_table_without_walk_blocks_when_a_hull_end_is_not_a_float():
    # 4x and 4x - 1 on (0, 1/2) in Fractions: every float step is exact, so
    # the array walk has an L = 8 table, but the hull end 1/3 is not a
    # float, so that table has no scalar form; the scalar walk of a float
    # point is the exact walk of the Fraction it equals, on the lattice;
    # float eval_cdf, and cdf_values through its table, lie within their
    # bound of the exact walk at the same float
    system = affine_system((Fraction(4), Fraction(4)),
                           (Fraction(0), Fraction(-1)),
                           (Fraction(0), Fraction(1, 2)))
    p, q = ProbVector.of(19 / 64), ProbVector.of(Fraction(19, 64))
    assert attractor_hull(system) == (0, Fraction(1, 3))
    cyl = system._cylinders
    assert len(cyl.park) == 8 and system._float_walk is system._coding.table
    assert _coding_for(system, 0.3) == _coding_for(system, Fraction(0.3))
    xs = np.linspace(-0.05, 0.4, 400)
    values = cdf_values(system, p, xs, tol=1e-12)
    for x, v in zip(xs.tolist(), values.tolist()):
        exact, exact_bound = eval_cdf(system, q, Fraction(x))
        value, bound = eval_cdf(system, p, x)
        assert abs(Fraction(value) - exact) <= Fraction(bound) + exact_bound
        assert abs(Fraction(v) - exact) <= Fraction(1e-12) + exact_bound


# the tables `_walk` reads: float systems whose L-symbol table replays its
# float steps;
# rational systems, whose points (a float as the Fraction it equals) walk
# a lattice (integer slopes) or Fractions (a slope of 3/2); custom branches
TABLE_SYSTEMS = {
    "cantor": CANTOR,
    "gaps3": affine_system((4.0, 3.0, 4.0), (0.0, -1.0, -3.0), (0.0, 1.0)),
    "exact cantor": rational_system("cantor"),
    "exact half": rational_system("half"),
    "exact gaps3": rational_system("gaps3"),
    "threehalves": rational_system("threehalves"),
    "bent": bent_system(),
}


def _table_ends(system):
    """Hull ends and the ends of every cylinder of up to 3 symbols, in the
    system's own numbers: the points that park or sit on a window edge."""
    a, b = attractor_hull(system)
    words = [w for n in (1, 2, 3)
             for w in itertools.product(system.symbols(), repeat=n)]
    return sorted({a, b} | {t for w in words for t in cylinder(system, w)})


@st.composite
def table_cases(draw):
    """A system of TABLE_SYSTEMS and a point in the arithmetic of one of
    its tables: a Fraction (rational systems only) or a float, random, at a
    cylinder end or a few ulps from one, or outside the hull."""
    name = draw(st.sampled_from(sorted(TABLE_SYSTEMS)))
    system = TABLE_SYSTEMS[name]
    a, b = attractor_hull(system)
    ends = _table_ends(system)
    if system.is_rational and draw(st.booleans()):
        x = draw(st.one_of(
            st.sampled_from(ends),
            st.fractions(a - Fraction(1, 10), b + Fraction(1, 10),
                         max_denominator=10 ** 4)))
    else:
        x = draw(st.one_of(
            st.floats(float(a) - 0.1, float(b) + 0.1),
            st.builds(near, st.sampled_from([float(t) for t in ends]),
                      st.integers(-3, 3))))
    return name, x


@settings(max_examples=400, deadline=None)
@given(case=table_cases(), depth=st.integers(0, 40))
# float(2/3) lies below the exact window edge 2/3: a gap on the exact edges
@example(case=("exact cantor", 2 / 3), depth=5)
@example(case=("exact cantor", Fraction(2, 3)), depth=5)
@example(case=("exact half", Fraction(1, 6)), depth=40)
@example(case=("threehalves", Fraction(1, 3)), depth=40)
@example(case=("bent", 0.5), depth=40)
def test_walk_is_the_window_rule_on_every_table(case, depth):
    name, x = case
    system = TABLE_SYSTEMS[name]
    table, y = _coding_for(system, x)
    # every point of an integer-slope rational system walks on the integers
    lattice = name.startswith("exact")
    assert (type(y) is int) == lattice
    assert list(itertools.chain.from_iterable(_walk(table, y, depth))) \
        == list(reference_events(system, x, depth))


def test_float_point_on_a_rational_system_walks_the_exact_edges():
    # 3x and 3x - 2 on (0, 1) in Fractions: float(2/3) lies below the
    # window edge 2/3, so the walk of that float, the exact walk of the
    # Fraction it equals, finds a gap; the float image of the system, which
    # the array walk reads, rounds that edge to the same float and files
    # the point inside window 2
    system = TABLE_SYSTEMS["exact cantor"]
    x = 2 / 3
    assert list(itertools.chain.from_iterable(
        _walk(*_coding_for(system, x), 5))) == [(0, 2, True)]
    step = system._step
    r = np.searchsorted(step.keys, x, side="right")
    assert (step.window[0][r], step.inside[0][r], step.park[0][r]) \
        == (1, True, 0)


# the walk takes one region lookup at a time, and each of its three
# consumers takes one lookup's events at a time: every output keeps the
# bits of one event at a time, written out here in the walk's arithmetic
EVALUATOR_SYSTEMS = dict(TABLE_SYSTEMS, **{
    "dyadic": _exact_step_system("dyadic"),
    "exact dyadic": rational_system("dyadic"),
    # fl(3x) at the right edge of window 1 lies one float above the hull's
    # right end b: a gap of the symbol past the last window, whose left
    # siblings are the zero columns of every step
    "escape": affine_system((3.0, 2.0), (0.0, -1.765207077218265),
                            (0.0, 1.990870174183882))})
ESCAPE_X = 0.5884023590727551


def reference_encode(system, x, depth):
    events = list(reference_events(system, x, depth))
    gap = bool(events) and events[-1][2]
    return tuple(sym for _, sym, _ in events[:len(events) - gap]), gap


def reference_exact_cdf(system, q, x, tol, depth):
    """eval_cdf over the reference events in q's own arithmetic."""
    zero, one = q._unit
    a, b = attractor_hull(system)
    if x <= a:
        return zero, 0.0
    if x >= b:
        return one, 0.0
    acc, mass = zero, one
    for park, sym, gap in reference_events(system, x, depth):
        if float(mass) <= tol:
            break
        if park:
            acc, mass = (acc + mass if park > 0 else acc), zero
            break
        acc = acc + mass * q._left[sym - 1]
        if gap:
            mass = zero
            break
        mass = mass * q.weights[sym - 1]
    return acc, float(mass)


def reference_dot(row, column):
    """row[k] * column[k] over the nonzero entries, added left to right
    from the first term: the order of `takagi._dot`."""
    total = None
    for k, v in enumerate(column):
        if v:
            term = row[k] * v
            total = term if total is None else total + term
    return total


def reference_derivative(system, p, q, order, x, depth):
    """eval_derivative_point over the reference events in q's own
    arithmetic, one event at a time."""
    s = len(order)
    steps = {i: step_matrix(i, q, order) for i in range(1, s + 2)}
    columns = {i: m.T.tolist() for i, m in steps.items()}
    tail = _parked_tail(steps[s + 1],
                        sum(steps[j][:, 0] for j in range(1, s + 1))).tolist()
    zero, one = q._unit
    a, b = attractor_hull(system)
    if x <= a or x >= b:
        return zero, 0.0
    r = [zero] * (len(tail) - 1) + [one]
    value, mass = zero, one
    for park, sym, gap in reference_events(system, x, depth):
        if park:
            return (value + reference_dot(r, tail) if park > 0
                    else value), 0.0
        for j in range(1, sym):
            value = value + reference_dot(r, columns[j][0])
        if gap:
            return value, 0.0
        r = [reference_dot(r, col) for col in columns[sym]]
        mass = mass * q.weights[sym - 1]
    return value, growth_constant(system, p, order) * float(mass) \
        * max(depth, 1) ** sum(order)


@st.composite
def evaluator_cases(draw):
    """A system of EVALUATOR_SYSTEMS, weights in 64ths (Fractions on a
    rational system, or floats), an order of the system's weight count and
    a point as in `table_cases` or a dyadic float, whose orbit under 2x and
    2x - 1 parks on the hull end 1."""
    name = draw(st.sampled_from(sorted(EVALUATOR_SYSTEMS)))
    system = EVALUATOR_SYSTEMS[name]
    s = system.branch_count - 1
    free = draw(st.lists(st.integers(1, 63 // (s + 1)), min_size=s,
                         max_size=s))
    exact = system.is_rational and draw(st.booleans())
    p = ProbVector.of(*(Fraction(f, 64) if exact else f / 64 for f in free))
    order = draw(st.sampled_from([(1,), (2,)] if s == 1 else [(1, 1), (2, 1)]))
    a, b = attractor_hull(system)
    ends = _table_ends(system)
    if system.is_rational and draw(st.booleans()):
        x = draw(st.one_of(
            st.sampled_from(ends),
            st.fractions(a - Fraction(1, 10), b + Fraction(1, 10),
                         max_denominator=10 ** 4)))
    else:
        x = draw(st.one_of(
            st.floats(float(a) - 0.1, float(b) + 0.1),
            st.builds(near, st.sampled_from([float(t) for t in ends]),
                      st.integers(-3, 3)),
            st.integers(1, 2 ** 60 - 1).map(lambda k: k / 2 ** 60)))
    return name, p, order, x


def _same(got, want):
    return got == want and [type(v) for v in got] == [type(v) for v in want]


@settings(max_examples=300, deadline=None)
@given(case=evaluator_cases(), depth=st.integers(0, 160),
       tol=st.sampled_from([1e-3, 1e-12, 1e-300]))
# parked on 1 after 51 symbols, with 99 left of the depth
@example(case=("dyadic", ProbVector.of(0.3), (2,), 0.5 + 2 ** -50),
         depth=150, tol=1e-300)
@example(case=("gaps3", ProbVector.of(0.25, 0.5), (2, 1), 0.5), depth=90,
         tol=1e-300)
@example(case=("exact gaps3", ProbVector.of(Fraction(1, 4), Fraction(1, 2)),
               (1, 1), Fraction(1, 2)), depth=90, tol=1e-300)
@example(case=("bent", ProbVector.of(0.3), (1,), 0.75), depth=80, tol=1e-12)
@example(case=("escape", ProbVector.of(0.3), (1,), ESCAPE_X), depth=2,
         tol=1e-300)
@example(case=("escape", ProbVector.of(0.3), (2,), ESCAPE_X), depth=2,
         tol=1e-300)
# the float orbit of this float under 3x/2 and 3x - 2 once ended its word
# in 2, where the exact walk of the same float ends in 1
@example(case=("threehalves", ProbVector.of(Fraction(1, 64)), (1,),
               0.8617199044741201), depth=52, tol=1e-300)
def test_evaluators_keep_the_bits_of_one_event_at_a_time(case, depth, tol):
    name, p, order, x = case
    system = EVALUATOR_SYSTEMS[name]
    q = p if system.is_rational and p.is_rational else p.as_floats()
    a, b = attractor_hull(system)
    if a <= x <= b:
        got = encode(system, x, depth)
        assert (got.word, got.gap) == reference_encode(system, x, depth)
        assert all(type(sym) is int for sym in got.word)
    else:
        with pytest.raises(OutsideHullError):
            encode(system, x, depth)
    assert _same(eval_cdf(system, p, x, tol=tol, max_depth=depth),
                 reference_exact_cdf(system, q, x, tol, depth))
    assert _same(eval_derivative_point(system, p, order, x, depth=depth),
                 reference_derivative(system, p, q, order, x, depth))


def test_a_parked_point_ends_the_evaluators_walk(monkeypatch):
    # a float orbit of 2x, 2x - 1 parks on the hull end 1 within 53
    # symbols plus the size of its binary exponent; eval_cdf and
    # eval_derivative_point return at the first park event, so a depth of
    # 10**9 takes the lookups that reach the park and builds nothing of its
    # length
    system = _exact_step_system("dyadic")
    lookups = []
    bisect_left = ifs.bisect_left
    monkeypatch.setattr(ifs, "bisect_left",
                        lambda *args: lookups.append(args) or bisect_left(
                            *args))
    p = ProbVector.of(0.3)
    # the walk and derivative tables are built once, before any is traced
    eval_cdf(system, p, 0.75, tol=1e-300, max_depth=1)
    eval_derivative_point(system, p, (1,), 0.75, depth=1)
    for x in (0.75, 1 - 2 ** -8, 0.5 + 2 ** -50, 1 - 2 ** -53):
        lookups.clear()
        tracemalloc.start()
        try:
            cdf = eval_cdf(system, p, x, tol=1e-300, max_depth=10 ** 9)
            derivative = eval_derivative_point(system, p, (1,), x,
                                               depth=10 ** 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 5, x
        # at most 7 lookups of 8 symbols reach the park, in each evaluator
        assert len(lookups) <= 2 * 7, x
        assert cdf == reference_cdf(system, p, x, 1e-300, 100), x
        assert cdf[1] == 0.0 and derivative[1] == 0.0, x
        assert derivative == reference_derivative(system, p, p, (1,), x,
                                                  100), x



# 2x, 3x and 5x in Fractions, each branch onto [0, 1]
SLOPE_SYSTEMS = {
    slope: affine_system((Fraction(slope),) * len(intercepts),
                         tuple(map(Fraction, intercepts)),
                         (Fraction(0), Fraction(1)))
    for slope, intercepts in ((2, (0, -1)), (3, (0, -2)), (5, (0, -2, -4)))}


@st.composite
def floats_on_rational_systems(draw):
    """A system of SLOPE_SYSTEMS, weights in 64ths (Fractions or floats)
    and a float within a few ulps of k/2^m or k/3^m, m <= 7."""
    system = SLOPE_SYSTEMS[draw(st.sampled_from(sorted(SLOPE_SYSTEMS)))]
    s = system.branch_count - 1
    free = draw(st.lists(st.integers(1, 63 // (s + 1)), min_size=s,
                         max_size=s))
    exact = draw(st.booleans())
    p = ProbVector.of(*(Fraction(f, 64) if exact else f / 64 for f in free))
    n = draw(st.sampled_from([2, 3])) ** draw(st.integers(0, 7))
    x = near(draw(st.integers(0, n)) / n, draw(st.integers(-3, 3)))
    return system, p, x


def _outcome(call, x):
    """call(x) and the type of each value, or the hull error it raises."""
    try:
        got = call(x)
    except OutsideHullError:
        return OutsideHullError
    return got, [type(v) for v in (got if isinstance(got, tuple) else (got,))]


@settings(max_examples=200, deadline=None)
@given(case=floats_on_rational_systems(), depth=st.integers(0, 60))
# float(1/3) on the middle third once walked its float orbit, which 3x
# rounds onto 1: eval_cdf gave 3/10 with bound 0, 1.6e-6 off the exact value
@example(case=(SLOPE_SYSTEMS[3], ProbVector.of(Fraction(3, 10)), 1 / 3),
         depth=60)
def test_a_float_on_a_rational_system_walks_as_its_fraction(case, depth):
    # every scalar evaluator: the same value, bound and types at x as at
    # the Fraction x equals
    system, p, x = case
    order = (1,) * (system.branch_count - 1)
    for call in (lambda t: eval_cdf(system, p, t, max_depth=depth),
                 lambda t: phi(system, p, t),
                 lambda t: encode(system, t, depth),
                 lambda t: eval_derivative_point(system, p, order, t,
                                                 depth=depth)):
        assert _outcome(call, x) == _outcome(call, Fraction(x)), x
