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


def test_cocycle_closed_forms_exact():
    p = rational_quarter()
    A = cocycle_matrix((1, 2), p, (1,), normalized=True)
    assert A.entry((1,), (0,)) == Fraction(8, 3)  # 1/p1 - 1/p2
    A = cocycle_matrix((1,) * 50, p, (1,), normalized=True)
    assert A.entry((1,), (0,)) == 50 * Fraction(4)


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
