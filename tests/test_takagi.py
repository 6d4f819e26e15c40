import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import holderlab.takagi
from holderlab import (
    ProbVector,
    affine_system,
    cdf_values,
    cocycle_matrix,
    cylinder_increment,
    derivative_grids,
    eval_derivative_grid,
    eval_derivative_point,
    fd_derivative,
    growth_constant,
    index_set,
    step_matrix,
)
from test_scalar_walk import reference_events


def rational_quarter():
    return ProbVector((Fraction(1, 4), Fraction(3, 4)))


def test_index_set_order():
    assert index_set((2,)) == [(0,), (1,), (2,)]
    assert index_set((1, 1)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert index_set((2, 1))[:3] == [(0, 0), (0, 1), (1, 0)]


def test_step_matrix_layout():
    p = ProbVector.of(0.25)
    m1 = step_matrix(1, p, (2,))
    m2 = step_matrix(2, p, (2,))
    assert np.allclose(m1.astype(float),
                       [[0.25, 0, 0], [1, 0.25, 0], [0, 2, 0.25]])
    assert np.allclose(m2.astype(float),
                       [[0.75, 0, 0], [-1, 0.75, 0], [0, -2, 0.75]])
    with pytest.raises(ValueError, match="out of range"):
        step_matrix(3, p, (1,))


def test_cocycle_closed_forms_exact():
    p = rational_quarter()
    A = cocycle_matrix((1, 2), p, (1,), normalized=True)
    assert A.entry((1,), (0,)) == Fraction(8, 3)  # 1/p1 - 1/p2
    A = cocycle_matrix((1,) * 50, p, (1,), normalized=True)
    assert A.entry((1,), (0,)) == 50 * Fraction(4)
    with pytest.raises(ValueError, match="empty word"):
        cocycle_matrix((), p, (1,))


def test_cocycle_triangular_unit_diagonal():
    p = rational_quarter()
    rng = np.random.default_rng(2)
    idx = index_set((2,))
    for _ in range(40):
        word = tuple(int(s) for s in rng.integers(1, 3, size=12))
        A = cocycle_matrix(word, p, (2,), normalized=True)
        raw = cocycle_matrix(word, p, (2,), normalized=False)
        mass = p.mass(word)
        for i, q in enumerate(idx):
            assert A.matrix[i, i] == 1
            assert raw.matrix[i, i] == mass
            for j in range(i + 1, len(idx)):
                assert A.matrix[i, j] == 0


def test_increment_entries(dyadic, quarter):
    iv = cylinder_increment(dyadic, quarter, (1, 2))
    assert iv.entry((0,)) == pytest.approx(-quarter.mass((1, 2)))
    assert iv.rise((1,)) == pytest.approx(0.5)


def test_increments_telescope(dyadic, quarter):
    total = np.zeros(3)
    for a in (1, 2):
        for b in (1, 2):
            for c in (1, 2):
                total += cylinder_increment(dyadic, quarter, (a, b, c)).entries
    assert total[0] == pytest.approx(-1.0)
    assert abs(total[1]) < 1e-12 and abs(total[2]) < 1e-12


def test_point_eval_matches_fd(dyadic):
    p = ProbVector.of(0.3)
    xs = np.array([0.23, 0.5, 0.81])
    for order in [(1,), (2,)]:
        fd = fd_derivative(dyadic, p, order, xs, h=1e-4)
        for x, f in zip(xs, fd):
            val, err = eval_derivative_point(dyadic, p, order, x)
            assert val == pytest.approx(f, abs=5e-6)
    with pytest.raises(ValueError, match="zero order"):
        eval_derivative_point(dyadic, p, (0,), 0.5)


@pytest.mark.parametrize("h", [0.0, -0.0, math.inf, -math.inf, math.nan])
def test_fd_derivative_refuses_a_zero_or_infinite_step(dyadic, h):
    # h = 0 divided by zero after numpy's "invalid value" warning
    with pytest.raises(ValueError, match="h must be finite and nonzero"):
        fd_derivative(dyadic, ProbVector.of(0.3), (1,), [0.5], h=h)


def test_fd_derivative_names_a_step_that_moves_a_weight_out(dyadic):
    # the refusal named the moved weights (-0.2, 1.2), not h
    with pytest.raises(ValueError, match="h = 0.5 moves a weight"):
        fd_derivative(dyadic, ProbVector.of(0.3), (1,), [0.5], h=0.5)


def test_cylinder_increment_refuses_a_box_of_another_length(dyadic):
    # two components for one free weight raised IndexError, then named
    # `order`
    with pytest.raises(ValueError, match="n_max needs 1 components"):
        cylinder_increment(dyadic, ProbVector.of(0.3), (1, 2), n_max=(1, 1))


def test_mixed_partial_three_branches():
    system = affine_system((3.0, 3.0, 3.0), (0.0, -1.0, -2.0), (0.0, 1.0))
    p = ProbVector.of(0.3, 0.3)
    xs = np.array([0.4, 0.7])
    fd = fd_derivative(system, p, (1, 1), xs, h=1e-4)
    for x, f in zip(xs, fd):
        val, _ = eval_derivative_point(system, p, (1, 1), x)
        assert val == pytest.approx(f, abs=5e-5)


def test_parked_tail_closed_form(dyadic, half):
    # 0.75 has coding (2, 1, 1, ...), so the walk parks and the tail sum
    # has an exact closed form
    val, err = eval_derivative_point(dyadic, half, (1,), 0.75)
    assert err == 0.0
    fd = fd_derivative(dyadic, half, (1,), np.array([0.75]), h=1e-5)[0]
    assert val == pytest.approx(fd, abs=1e-6)


def test_gap_point_exact(cantor, quarter):
    val, err = eval_derivative_point(cantor, quarter, (1,), 0.5)
    assert err == 0.0


def test_derivative_grids_match_point_eval(dyadic):
    p = ProbVector.of(0.3)
    nodes = np.linspace(-0.5, 1.5, 2 ** 9 + 1)
    dg = derivative_grids(dyadic, p, (1,), nodes, terms=60)[(1,)]
    assert dg.converged
    for i in (64, 200, 301, 466):
        val, _ = eval_derivative_point(dyadic, p, (1,), nodes[i])
        assert dg.grid.values[i] == pytest.approx(val, abs=1e-9)
    # two terms are too few to extrapolate the tail from
    short = derivative_grids(dyadic, p, (1,), nodes, terms=2)[(1,)]
    assert short.tail_estimate == math.inf and short.converged is False


def test_derivative_grid_of_a_zero_order_component():
    # order (1, 0) has no source term in the second weight, and its grid is
    # the one that order (1, 1) computes on the way
    gaps3 = affine_system((4.0, 3.0, 4.0), (0.0, -1.0, -3.0), (0.0, 1.0))
    p, nodes = ProbVector.of(0.2, 0.5), np.linspace(-0.25, 1.25, 193)
    alone = derivative_grids(gaps3, p, (1, 0), nodes, terms=30)
    both = derivative_grids(gaps3, p, (1, 1), nodes, terms=30)
    assert set(alone) == {(0, 0), (1, 0)}
    for m in alone:
        assert alone[m].grid.values.tobytes() \
            == both[m].grid.values.tobytes()
        assert (alone[m].terms, alone[m].tail_estimate) \
            == (both[m].terms, both[m].tail_estimate)


@pytest.mark.parametrize("sups", [[1.0, 1.0, 1.0], [1.0, 0.5, 0.75],
                                  [1.0, 2.0, 4.0]])
def test_tail_of_a_series_that_does_not_decay(sups):
    assert holderlab.takagi._tail_estimate(sups) == (math.inf, False)


def test_eval_derivative_grid_wrapper(dyadic, quarter):
    nodes = np.linspace(-0.5, 1.5, 257)
    dg = eval_derivative_grid(dyadic, quarter, (1,), nodes, terms=50)
    assert dg.order == (1,)
    assert dg.grid.values.shape == nodes.shape


def counting_step_matrix(monkeypatch):
    """Patch takagi.step_matrix to count its calls per (weights, order)."""
    calls = Counter()
    build = holderlab.takagi.step_matrix

    def counted(symbol, p, n_max):
        calls[id(p), tuple(n_max)] += 1
        return build(symbol, p, n_max)

    monkeypatch.setattr(holderlab.takagi, "step_matrix", counted)
    return calls


def test_derivative_table_built_once_per_weights_and_order(dyadic,
                                                           monkeypatch):
    calls = counting_step_matrix(monkeypatch)
    p = ProbVector.of(0.5)
    # 0.75 parks on the right hull endpoint, 0.3 and 1/3 run to depth
    xs = (0.75, 0.3, 1 / 3)
    for _ in range(3):
        for order in ((1,), (2,)):
            for x in xs:
                eval_derivative_point(dyadic, p, order, x)
            growth_constant(dyadic, p, order)
            cocycle_matrix((1, 2, 2), p, order)
            cocycle_matrix((2,), p, order, normalized=True)
        cylinder_increment(dyadic, p, (2, 1, 1))
    assert calls == {(id(p), (1,)): 2, (id(p), (2,)): 2}
    # an exact walk reads the exact table, and the growth constant comes
    # from the table of the float twin
    calls.clear()
    exact = affine_system((Fraction(2), Fraction(2)),
                          (Fraction(0), Fraction(-1)),
                          (Fraction(0), Fraction(1)))
    rp = ProbVector.of(Fraction(1, 2))
    for _ in range(3):
        for x in (Fraction(3, 4), Fraction(1, 3)):
            eval_derivative_point(exact, rp, (1,), x, depth=20)
        growth_constant(exact, rp, (1,))
        cocycle_matrix((1, 2), rp, (1,))
    assert calls == {(id(rp), (1,)): 2, (id(rp.as_floats()), (1,)): 2}


def test_derivative_table_never_handed_out(dyadic):
    p = ProbVector.of(0.5)
    xs = (0.75, 0.3, 1 / 3)
    before = [eval_derivative_point(dyadic, p, (1,), x) for x in xs]
    fresh = step_matrix(1, p, (1,))
    for mat in (cocycle_matrix((1,), p, (1,)).matrix,
                cocycle_matrix((1,), p, (1,), normalized=True).matrix,
                cocycle_matrix((2, 1), p, (1,)).matrix,
                cylinder_increment(dyadic, p, (1,), (1,)).entries,
                step_matrix(1, p, (1,))):
        assert mat.flags.writeable
        mat[...] = 7.0
    assert np.array_equal(cocycle_matrix((1,), p, (1,)).matrix, fresh)
    assert np.array_equal(step_matrix(1, p, (1,)), fresh)
    assert [eval_derivative_point(dyadic, p, (1,), x) for x in xs] == before


def legacy_fd_derivative(system, p, order, xs, h=1e-4):
    """fd_derivative's three per-order formulas before they became one
    stencil product, kept as a reference."""
    s = len(order)
    total = sum(order)
    tol = min(1e-13, h ** (total + 1) * 1e-3)
    xs = np.asarray(xs, dtype=float)
    free = [float(w) for w in p.free]

    def T(shift):
        moved = [f + d for f, d in zip(free, shift)]
        return cdf_values(system, ProbVector.of(*moved), xs, tol=tol)

    if total == 1:
        k = order.index(1)
        e = [h if i == k else 0.0 for i in range(s)]
        ne = [-v for v in e]
        return (T(e) - T(ne)) / (2 * h)
    if 2 in order:
        k = order.index(2)
        e = [h if i == k else 0.0 for i in range(s)]
        ne = [-v for v in e]
        return (T(e) - 2 * T([0.0] * s) + T(ne)) / h ** 2
    k, l = [i for i, v in enumerate(order) if v == 1]

    def shift(sk, sl):
        return [sk * h if i == k else (sl * h if i == l else 0.0)
                for i in range(s)]
    return (T(shift(1, 1)) - T(shift(1, -1))
            - T(shift(-1, 1)) + T(shift(-1, -1))) / (4 * h ** 2)


DYADIC = affine_system((2.0, 2.0), (0.0, -1.0), (0.0, 1.0))
THREE = affine_system((3.0, 3.0, 3.0), (0.0, -1.0, -2.0), (0.0, 1.0))


@pytest.mark.parametrize("system, free, orders", [
    (DYADIC, (0.3,), ((1,), (2,))),
    (DYADIC, (19 / 64,), ((1,), (2,))),
    (THREE, (0.3, 0.3), ((1, 1), (1, 0), (0, 2), (0, 1), (2, 0))),
    (THREE, (0.2, 0.45), ((1, 1), (1, 0), (0, 2), (0, 1))),
])
def test_fd_derivative_matches_the_per_order_formulas(system, free, orders):
    p = ProbVector.of(*free)
    xs = np.linspace(-0.1, 1.1, 97)
    for order in orders:
        for h in (1e-4, 1e-3):
            assert np.array_equal(
                fd_derivative(system, p, order, xs, h=h),
                legacy_fd_derivative(system, p, order, xs, h=h))
    for order in ((3,), (2, 1), (0, 3), (0, 0), (0,)):
        if len(order) == len(free):
            with pytest.raises(NotImplementedError):
                fd_derivative(system, p, order, xs)


def test_growth_constant_positive(dyadic, quarter):
    k = growth_constant(dyadic, quarter, (2,))
    assert k > 0


def full_branches(k):
    return affine_system((float(k),) * k, tuple(-float(j) for j in range(k)),
                         (0.0, 1.0))


@st.composite
def growth_cases(draw):
    """Free weights of 2 or 3 branches, an order with |n| <= 3, and a
    random or constant word of length 1 to 200."""
    s = draw(st.integers(1, 2))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=s + 1,
                        max_size=s + 1))
    free = tuple(r / sum(raw) for r in raw[:s])
    order = draw(st.lists(st.integers(0, 3), min_size=s, max_size=s).filter(
        lambda n: 1 <= sum(n) <= 3))
    length = draw(st.integers(1, 200))
    symbol = st.integers(1, s + 1)
    word = draw(st.one_of(symbol.map(lambda i: (i,) * length),
                          st.lists(symbol, min_size=length,
                                   max_size=length).map(tuple)))
    return free, tuple(order), word


@given(growth_cases())
@example(((0.25,), (2,), (1,) * 64))    # 15.75, above a sampled 12.8
@settings(max_examples=150, deadline=None)
def test_growth_constant_bounds_every_word(case):
    free, order, word = case
    p = ProbVector.of(*free)
    bound = growth_constant(full_branches(len(free) + 1), p, order)
    coc = cocycle_matrix(word, p, order, normalized=True)
    rows = np.array([sum(m) for m in coc.indices])
    ratios = np.abs(coc.matrix) / (len(word) ** rows)[:, None]
    assert ratios.max() <= bound * (1 + 1e-12)


@pytest.mark.parametrize("free", [(0.25,), (0.3,), (0.9,), (0.2, 0.5),
                                  (0.6, 0.1)])
def test_growth_constant_first_order(free):
    # order e_j: A holds n_j / p_i for symbol j and the last symbol only
    p = ProbVector.of(*free)
    pf, s = p.as_floats(), len(free)
    for j in range(s):
        order = tuple(int(i == j) for i in range(s))
        k = growth_constant(full_branches(s + 1), p, order)
        assert k == max(1.0, 1.0 / float(pf[j + 1]), 1.0 / float(pf[s + 1]))


def test_classical_takagi_proportionality(dyadic, half):
    # with symmetric weights the first-order kernel is a multiple of the
    # classical blancmange; the factor is measured, not assumed
    nodes = np.linspace(0.0, 1.0, 257)
    dg = derivative_grids(dyadic, half, (1,), nodes, terms=40)[(1,)]

    def takagi(x, terms=30):
        return sum(min((2 ** k * x) % 1, 1 - (2 ** k * x) % 1) / 2 ** k
                   for k in range(terms))

    tau = np.array([takagi(x) for x in nodes])
    mask = tau > 0.05
    ratio = dg.grid.values[mask] / tau[mask]
    assert ratio.max() - ratio.min() < 1e-3


@pytest.mark.xfail(strict=True, reason="known defect, ROADMAP item 1: the "
                   "float product 3x rounds x = float(1/3) onto the hull "
                   "endpoint 1, and the float walk parks there with bound 0")
def test_float_derivative_walk_within_its_bound_near_cylinder_endpoint():
    # x lies about 2e-17 below 1/3; the exact twin walks the same float
    floats = affine_system((3.0, 3.0), (0.0, -2.0), (0.0, 1.0))
    exact = affine_system((Fraction(3), Fraction(3)),
                          (Fraction(0), Fraction(-2)),
                          (Fraction(0), Fraction(1)))
    x = float(Fraction(1, 3))
    value, bound = eval_derivative_point(floats, ProbVector.of(17 / 64),
                                         (1,), x)
    ref, ref_bound = eval_derivative_point(
        exact, ProbVector.of(Fraction(17, 64)), (1,), Fraction(x))
    assert ref_bound == 0.0
    assert abs(value - ref) <= bound


THREE = affine_system((3.0, 3.0, 3.0), (0.0, -1.0, -2.0), (0.0, 1.0))
DYADIC = affine_system((2.0, 2.0), (0.0, -1.0), (0.0, 1.0))


@pytest.mark.parametrize("call, args", [
    pytest.param(eval_derivative_point,
                 (DYADIC, ProbVector.of(0.3), (-1,), 0.5), id="point"),
    pytest.param(eval_derivative_point,
                 (THREE, ProbVector.of(0.3, 0.3), (1, -1), 0.4),
                 id="point-zero-sum"),
    pytest.param(fd_derivative,
                 (THREE, ProbVector.of(0.3, 0.3), (2, -1), [0.4]), id="fd"),
    pytest.param(derivative_grids,
                 (DYADIC, ProbVector.of(0.3), (-1,), np.linspace(0, 1, 9)),
                 id="grids"),
    pytest.param(eval_derivative_grid,
                 (DYADIC, ProbVector.of(0.3), (-1,), np.linspace(0, 1, 9)),
                 id="grid"),
    pytest.param(step_matrix, (1, ProbVector.of(0.3), (-1,)), id="step"),
    pytest.param(cocycle_matrix, ((1, 2), ProbVector.of(0.3), (-1,)),
                 id="cocycle"),
    pytest.param(cylinder_increment,
                 (DYADIC, ProbVector.of(0.3), (1, 2), (-1,)), id="increment"),
    pytest.param(growth_constant, (DYADIC, ProbVector.of(0.3), (-1,)),
                 id="growth"),
    pytest.param(index_set, ((-1,),), id="index-set"),
    pytest.param(index_set, ((2, -1),), id="index-set-2d"),
])
def test_negative_orders_raise_value_error(call, args):
    with pytest.raises(ValueError, match="non-negative"):
        call(*args)


GAPS3 = affine_system((4.0, 3.0, 4.0), (0.0, -1.0, -3.0), (0.0, 1.0))
CANTOR = affine_system((3.0, 3.0), (0.0, -2.0), (0.0, 1.0))
ROW_SYSTEMS = {"dyadic": DYADIC, "cantor": CANTOR, "gaps3": GAPS3}


def reference_derivative(system, p, order, x, depth):
    """eval_derivative_point written out in float: the row of the prefix
    step product as a list, and every row product, sibling term and parked
    tail a sum of row[k] * column[k] over the column's nonzero entries,
    added left to right from the first term, over the events of the
    one-symbol reference walk."""
    s = len(order)
    steps = {i: step_matrix(i, p, order).tolist() for i in range(1, s + 2)}
    d = len(steps[1])

    def dot(row, column):
        terms = [row[k] * v for k, v in enumerate(column) if v]
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return total

    def column(i, c):
        return [steps[i][k][c] for k in range(d)]

    # parked on the right hull end: (I - S_last) w = the free zero columns
    # added, by forward substitution
    c = [sum(steps[j][k][0] for j in range(1, s + 1)) for k in range(d)]
    last = steps[s + 1]
    w = []
    for i in range(d):
        acc = c[i]
        for j in range(i):
            if last[i][j]:
                acc = acc - (0.0 - last[i][j]) * w[j]
        w.append(acc / (1.0 - last[i][i]))
    a, b = (float(t) for t in system._coding.hull)
    if x <= a or x >= b:
        return 0.0, 0.0
    r = [0.0] * (d - 1) + [1.0]
    value, mass = 0.0, 1.0
    for park, sym, gap in reference_events(system, x, depth):
        if park:
            return (value + dot(r, w) if park > 0 else value), 0.0
        for j in range(1, sym):
            value = value + dot(r, column(j, 0))
        if gap:
            return value, 0.0
        r = [dot(r, column(sym, k)) for k in range(d)]
        mass *= p[sym]
    return value, growth_constant(system, p, order) * mass \
        * max(depth, 1) ** sum(order)


ROW_CASES = [("dyadic", (0.3,), (1,)), ("dyadic", (0.3,), (2,)),
             ("cantor", (19 / 64,), (1,)), ("cantor", (0.3,), (2,)),
             ("gaps3", (0.2, 0.5), (1, 1))]


def _row_points(system):
    a, b = (float(t) for t in system._coding.hull)
    edges = [float(t) for w in system._coding.windows for t in w]
    rng = np.random.default_rng(7)
    return edges + [0.75, 1 / 3, a - 0.1, b + 0.1] \
        + rng.uniform(a, b, 60).tolist()


@pytest.mark.parametrize("name, free, order", ROW_CASES)
def test_float_derivative_rows_are_left_to_right_sums(name, free, order):
    # plain floats, added in one order on every machine: np.dot's BLAS
    # kernels add 2 to 4 entries in another order, and so round differently
    system, p = ROW_SYSTEMS[name], ProbVector.of(*free)
    for x in _row_points(system):
        for depth in (0, 5, 9, 80):
            got = eval_derivative_point(system, p, order, x, depth=depth)
            assert got == reference_derivative(system, p, order, x, depth), x
            assert [type(v) for v in got] == [float, float]


@pytest.mark.parametrize("name, free, order", ROW_CASES)
def test_float_derivative_within_its_bound_of_the_exact_walk(name, free,
                                                             order):
    # at depth 20 the float value lies within its bound of the exact walk
    # of the same float, taken 40 symbols deep, plus the rounding of its
    # float sums, which no bound counts: the middle third and gaps3 land in
    # gaps with bound 0 and a value a fraction of an ulp off.  Weights in
    # 64ths are their own float twins
    system = ROW_SYSTEMS[name]
    exact = affine_system(*([Fraction(v) for v in vals] for vals in (
        [br.slope for br in system.branches],
        [br.intercept for br in system.branches], system.open_set)))
    free = tuple(Fraction(round(f * 64), 64) for f in free)
    p, q = ProbVector.of(*map(float, free)), ProbVector.of(*free)
    for x in _row_points(system)[-40:]:
        value, bound = eval_derivative_point(system, p, order, x, depth=20)
        ref, ref_bound = eval_derivative_point(exact, q, order, Fraction(x),
                                               depth=40)
        assert type(ref) is Fraction
        rounding = 1e-14 * max(1, abs(ref))
        assert abs(Fraction(value) - ref) <= bound + ref_bound + rounding, x


# recorded before the rows became plain numbers: exact walks add exactly,
# in any order
@pytest.mark.parametrize("name, free, order, x, value, bound", [
    ("dyadic", (19,), (1,), Fraction(3, 10),
     Fraction(6364617610082207, 9007199254740992), 0.013349260462661161),
    ("dyadic", (19,), (2,), Fraction(3, 10),
     Fraction(400223304246733, 140737488355328), 0.44965929979490216),
    ("dyadic", (19,), (2,), Fraction(3, 4), Fraction(-2), 0.0),
    ("cantor", (16,), (1,), Fraction(20, 27), Fraction(21, 16), 0.0),
    ("cantor", (16,), (2,), Fraction(1, 10), Fraction(1249, 512),
     0.12359619140625),
    ("gaps3", (16, 24), (1, 1), Fraction(5, 8),
     Fraction(12070935, 16777216), 0.058659911155700684)])
def test_exact_derivative_values_unchanged(name, free, order, x, value,
                                           bound):
    system = ROW_SYSTEMS[name]
    exact = affine_system(
        [Fraction(br.slope) for br in system.branches],
        [Fraction(br.intercept) for br in system.branches],
        [Fraction(v) for v in system.open_set])
    p = ProbVector.of(*(Fraction(k, 64) for k in free))
    got = eval_derivative_point(exact, p, order, x, depth=10)
    assert got == (value, bound)
    assert [type(v) for v in got] == [Fraction, float]
