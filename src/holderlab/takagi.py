"""Weight-parameter derivatives of the limit cdf and their matrix cocycle.

The limit cdf depends on the free branch weights p_1 .. p_s (the last weight
is 1 minus their sum).  Differentiating the self-consistency of the cdf in
those weights produces a family of fractal profiles indexed by a multi-index
over the free weights; the first-order one is a generalised Takagi curve.
Increments of the whole family across a cylinder are carried by a product of
sparse step matrices along the word, one matrix per symbol, which is what
this module assembles.

Row and column indices of the matrices are multi-indices m with m <= n_max
componentwise, sorted by total order then lexicographically, which makes
every step matrix lower triangular with the bare weight on the diagonal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .ifs import ConfigurationError, IFSystem, ProbVector, _checked_least, \
    _checked_word, _coding_for, _walk, _walk_weights
from .transition import GridFunction, _branch_images, _freeze_order, \
    _iterates, _read, cdf_values

# ---------------------------------------------------------------------------
# multi-index bookkeeping


def index_set(n_max: Sequence[int]) -> list:
    """Downward-closed box of multi-indices below n_max, sorted by weight;
    ValueError on a negative component."""
    ranges = [range(v + 1) for v in _checked_box(n_max)]
    idx = [tuple(t) for t in itertools.product(*ranges)]
    idx.sort(key=lambda t: (sum(t), t))
    return idx


def _positions(indices):
    return {m: k for k, m in enumerate(indices)}


# ---------------------------------------------------------------------------
# step matrices and their products


@dataclass(frozen=True)
class Cocycle:
    """Product of step matrices along a word, plus its index bookkeeping."""

    indices: tuple
    matrix: np.ndarray
    word: tuple
    normalized: bool

    def entry(self, row, col):
        pos = _positions(self.indices)
        return self.matrix[pos[tuple(row)], pos[tuple(col)]]


def step_matrix(symbol: int, p: ProbVector, n_max: Sequence[int]) -> np.ndarray:
    """One-symbol step matrix over the index box of n_max.

    For a free symbol i the rule is diag(p_i) plus n_i in column n - e_i;
    the last symbol gets diag(p_last) minus n_j in every column n - e_j,
    reflecting that the last weight moves opposite to each free one.
    """
    n_max = _checked_box(n_max)
    s = len(n_max)
    if not 1 <= symbol <= s + 1:
        raise ValueError(f"symbol {symbol} out of range for {s} free weights")
    indices = index_set(n_max)
    pos = _positions(indices)
    one = p._unit[1]
    d = len(indices)
    mat = np.zeros((d, d), dtype=object if p.is_rational else float)
    sign, moved = (1, [symbol - 1]) if symbol <= s else (-1, range(s))
    for n in indices:
        i = pos[n]
        mat[i, i] = p[symbol] * one
        for j in moved:
            if n[j] >= 1:
                below = n[:j] + (n[j] - 1,) + n[j + 1:]
                mat[i, pos[below]] = sign * n[j] * one
    return mat


def cocycle_matrix(word: Sequence[int], p: ProbVector, n_max: Sequence[int],
                   normalized: bool = False) -> Cocycle:
    """Ordered product of step matrices along the word.

    The normalized variant divides each factor by its weight, keeping unit
    diagonal; entries then grow only polynomially in the word length, so
    long products stay finite where the raw product would underflow.
    """
    n_max = _checked_box(n_max)
    word = _checked_word(word, len(n_max) + 1)
    if not word:
        raise ValueError("empty word")
    steps = _derivative_tables(p, n_max)["steps"]
    if normalized:
        steps = {sym: steps[sym] / p[sym] for sym in set(word)}
    out = steps[word[0]].copy()
    for sym in word[1:]:
        out = np.dot(out, steps[sym])
    return Cocycle(indices=tuple(index_set(n_max)), matrix=out, word=word,
                   normalized=normalized)


# ---------------------------------------------------------------------------
# cylinder increments


@dataclass(frozen=True)
class IncrementVector:
    """Differences across one cylinder for the whole derivative family.

    entry(n) is value(left endpoint) - value(right endpoint) of the order-n
    profile; rise(n) the opposite sign.  For the zero order the rise is the
    cylinder mass.
    """

    indices: tuple
    entries: np.ndarray
    word: tuple

    def entry(self, n):
        return self.entries[_positions(self.indices)[tuple(n)]]

    def rise(self, n):
        return -self.entry(n)


def cylinder_increment(system: IFSystem, p: ProbVector, word: Sequence[int],
                       n_max: Optional[Sequence[int]] = None) -> IncrementVector:
    """Increment vector of the derivative family across the word's cylinder.

    The base difference vector at the hull endpoints has -1 in the zero
    slot and 0 elsewhere (cdf drops from 1 to 0 going left), so the cylinder
    vector is minus the zero column of the word's step-matrix product, in
    the arithmetic that `eval_derivative_point` walks in.  ValueError
    unless n_max has one non-negative component per free weight.
    """
    n_max = _checked_order(system, (2,) * (system.branch_count - 1)
                           if n_max is None else n_max, "n_max")
    coc = cocycle_matrix(word, _walk_weights(system, p), n_max)
    return IncrementVector(indices=coc.indices, entries=-coc.matrix[:, 0],
                           word=tuple(word))


# ---------------------------------------------------------------------------
# pointwise evaluation by telescoping cylinder rises


def eval_derivative_point(system: IFSystem, p: ProbVector, order: Sequence[int],
                          x, depth: int = 80):
    """Value of the order-n weight derivative of the cdf at x, with an error
    bound.

    Telescopes cylinder rises of all same-depth siblings left of the coding
    of x; the tail over the unresolved cylinder is bounded by
    K * mass * depth^|n|, with K the certified polynomial growth constant
    of normalized step products (`growth_constant`) and mass the weight of
    that cylinder.  Points that land in a gap or that the walk reports
    parked on a hull endpoint resolve exactly (the remaining contribution
    has closed form); otherwise the walk stops at ``depth``.  The walk is
    `_walk`'s, L symbols per lookup on a system with an L-symbol table; a
    float x on a rational system walks as the Fraction it equals.
    The row of the prefix step product is a list of plain numbers, in the
    walk's arithmetic (floats, or Fractions when the system and weights
    are rational), and every row product and sibling term is a left to
    right sum over the nonzero entries of a step matrix column, so a float
    value does not depend on a BLAS library.  A NaN x, or a depth that is
    not an integer of at least 0, raises ValueError.
    """
    order = _checked_order(system, order)
    if sum(order) == 0:
        raise ValueError("zero order is the cdf itself; use eval_cdf")
    _checked_least("depth", depth, 0)

    q = _walk_weights(system, p)
    zero, one = q._unit
    a, b = system._coding.hull
    if x <= a or x >= b:
        return zero, 0.0

    table = _derivative_tables(q, order)
    columns, siblings = table["columns"], table["siblings"]
    weights = q.weights
    # row `order` of the prefix step product, the only row read; `order`
    # sorts last in its index box
    r = [zero] * (len(columns[1]) - 1) + [one]
    value, mass = zero, one
    for events in _walk(*_coding_for(system, x), depth):
        for park, sym, gap in events:
            if park:
                if park > 0:
                    value = value + _dot(r, table["tail"])
                return value, 0.0
            # left siblings, each the zero column of its step; in a gap,
            # the windows left of y.  Each sum is `_dot`'s, written out, as
            # a call per sum costs more than the sum on a short column
            for k, v, rest in siblings[sym]:
                t = r[k] * v
                for k, v in rest:
                    t = t + r[k] * v
                value = value + t
            if gap:
                return value, 0.0
            row = []
            for k, v, rest in columns[sym]:
                t = r[k] * v
                for k, v in rest:
                    t = t + r[k] * v
                row.append(t)
            r = row
            mass *= weights[sym - 1]
    err = table["growth"] * float(mass) * max(depth, 1) ** sum(order)
    return value, err


def _dot(row, column):
    """row[k] * v summed over the nonzero entries (k, v) of a `_column`,
    left to right from the first term."""
    k, v, rest = column
    total = row[k] * v
    for k, v in rest:
        total = total + row[k] * v
    return total


def _column(column) -> tuple:
    """The nonzero entries (k, v) of a column as plain numbers in index
    order, split as (k, v, rest): the first entry, which every column of
    a step and the parked tail have, and the entries after it."""
    (k, v), *rest = ((k, v) for k, v in enumerate(column.tolist()) if v)
    return k, v, tuple(rest)


def _derivative_tables(q: ProbVector, n_max: tuple) -> dict:
    """Everything the coding walk reads about one weight vector and index
    box, built once per ProbVector instance in q's own arithmetic: the
    step matrices ("steps", read-only arrays); per symbol the columns of
    its step ("columns") and the zero columns of the steps of the symbols
    below it ("siblings"), and the parked-endpoint tail ("tail"), each by
    `_column`; and the growth constant ("growth"), which is a float and
    comes from q's float twin."""
    key = ("derivative", n_max)
    table = q._memo.get(key)
    if table is None:
        s = len(n_max)
        steps = {i: step_matrix(i, q, n_max) for i in range(1, s + 2)}
        tail = _parked_tail(steps[s + 1],
                            sum(steps[j][:, 0] for j in range(1, s + 1)))
        for m in steps.values():
            m.flags.writeable = False
        if q.is_rational:
            growth = _derivative_tables(q.as_floats(), n_max)["growth"]
        else:
            # see growth_constant
            eye = np.eye(len(tail))
            a = np.max([np.abs(m / float(q[i]) - eye)
                        for i, m in steps.items()], axis=0)
            term = growth = eye
            for r in range(1, sum(n_max) + 1):
                term = term @ a / r
                growth = growth + term
            growth = float(growth.max())
        table = q._memo[key] = {
            "steps": steps,
            "columns": {i: tuple(map(_column, m.T))
                        for i, m in steps.items()},
            # a gap right of every window has the symbol s + 2
            "siblings": {i: tuple(_column(steps[j][:, 0])
                                  for j in range(1, i))
                         for i in range(1, len(steps) + 2)},
            "tail": _column(tail), "growth": growth}
    return table


def _parked_tail(step_last, c):
    """Solve (I - S) w = c, S the last-symbol step and c the sum of the
    free-symbol zero columns; the remaining contribution of an orbit parked
    on the right hull endpoint is prefix @ w.  Runs in the dtype of S."""
    d = step_last.shape[0]
    m = np.eye(d, dtype=step_last.dtype) - step_last
    # lower triangular in the sorted index order: forward substitution
    w = np.zeros_like(c)
    for i in range(d):
        acc = c[i]
        for j in range(i):
            if m[i, j]:
                acc = acc - m[i, j] * w[j]
        w[i] = acc / m[i, i]
    return w


def growth_constant(system: IFSystem, p: ProbVector,
                    n_max: Sequence[int]) -> float:
    """Constant K with |normalized product entries| <= K * k^|row| for every
    word of every length k >= 1.

    Each normalized step is I + N_i, N_i nilpotent and lowering the total
    order by one.  With A the entrywise maximum of |N_i| over the symbols,
    every product of k steps is bounded entrywise by
    (I + A)^k = sum_r C(k, r) A^r, and C(k, r) <= k^|row| / r!, so K is the
    largest entry of the finite sum over r <= |n_max| of A^r / r!.  The step
    matrices depend on the weights and n_max alone, not on the branches,
    and K is read from the table of p's float twin.
    """
    return _derivative_tables(p.as_floats(), _checked_box(n_max))["growth"]


# ---------------------------------------------------------------------------
# grid evaluation through the self-consistency equation


@dataclass(frozen=True)
class DerivativeGrid:
    grid: GridFunction
    order: tuple
    terms: int
    tail_estimate: float
    converged: bool


def derivative_grids(system: IFSystem, p: ProbVector, order: Sequence[int],
                     nodes: np.ndarray, terms: int = 80) -> dict:
    """Grids of every derivative up to ``order`` via the averaged series.

    Each order-n profile solves profile = M profile + source, where M is the
    branch-averaging operator and the source couples one order lower through
    compositions with the branches; the cdf itself is evaluated at tol 1e-14.
    The Neumann series of that equation is summed on the grid until a
    term's sup falls below 1e-12 or the budget of terms runs out; the tail
    estimate extrapolates the last term geometrically.  Non-decaying terms
    mark the result as not converged.  The tail estimate is not an error
    bound at nodes that the branches do not map onto nodes, where the
    series interpolates (ROADMAP item 2); the CLI evaluates with
    `eval_derivative_point` instead.
    """
    order = _checked_order(system, order)
    nodes = np.asarray(nodes, dtype=float)
    pf = p.as_floats()

    out = {}
    base = GridFunction(nodes, cdf_values(system, pf, nodes, tol=1e-14),
                        boundary_left=0.0, boundary_right=1.0)
    zero_order = (0,) * len(order)
    out[zero_order] = DerivativeGrid(grid=base, order=zero_order, terms=0,
                                     tail_estimate=0.0, converged=True)
    images = _branch_images(system, pf, nodes)
    # the nodes each term computes, shared by every order
    stepped = _freeze_order(images, nodes.size)
    for m in index_set(order):
        if m == zero_order:
            continue
        source = _source_grid(m, out, images)
        total = source.values.copy()
        sups = [float(np.abs(source.values).max())]
        for _, (term, _, _) in zip(range(terms - 1),
                                   _iterates(source, images, *stepped)):
            total += term
            sups.append(float(np.abs(term).max()))
            if sups[-1] < 1e-12:
                break
        tail, converged = _tail_estimate(sups)
        out[m] = DerivativeGrid(
            grid=GridFunction(nodes, total, 0.0, 0.0), order=m,
            terms=len(sups), tail_estimate=tail, converged=converged)
    return out


def eval_derivative_grid(system: IFSystem, p: ProbVector, order, nodes,
                         terms: int = 80) -> DerivativeGrid:
    """Grid of the order-n weight derivative of the cdf (averaged series)."""
    return derivative_grids(system, p, order, nodes, terms)[
        tuple(int(v) for v in order)]


def _source_grid(m, grids, images) -> GridFunction:
    """The order-m source on the branch images f_i(nodes) of `_branch_images`:
    sum_j m_j (D_{m - e_j}(f_j x) - D_{m - e_j}(f_last x)), each D read at
    the images' stencils by `_read`."""
    nodes = grids[(0,) * len(m)].grid.nodes
    vals = np.zeros_like(nodes)
    for j, mj in enumerate(m):
        if mj:
            read = _read(grids[m[:j] + (mj - 1,) + m[j + 1:]].grid, images)
            vals += mj * (read[j] - read[-1])
    return GridFunction(nodes, vals, 0.0, 0.0)


def _tail_estimate(sups):
    if len(sups) < 3:
        return float("inf"), False
    r = max(sups[-1] / sups[-2] if sups[-2] > 0 else 0.0,
            sups[-2] / sups[-3] if sups[-3] > 0 else 0.0)
    if r >= 1.0:
        return float("inf"), False
    return sups[-1] * r / (1.0 - r), True


# ---------------------------------------------------------------------------
# finite-difference cross check


def fd_derivative(system: IFSystem, p: ProbVector, order: Sequence[int], xs,
                  h: float = 1e-4):
    """Central finite differences of the cdf in the free weights.

    Supports total order one and two (including mixed): the stencil is the
    product over the free weights of the integer central stencils of their
    orders, divided by 2^(number of first orders) h^|order|.  The cdf is
    evaluated at the fixed tolerance min(1e-13, 1e-3 h^(|order|+1)), so
    stencil cancellation keeps clear of evaluator noise.  ValueError on an
    h that is 0 or not finite, or that moves a weight out of (0, 1).
    """
    if h == 0 or not math.isfinite(h):
        raise ValueError(f"h must be finite and nonzero, got {h}")
    order = _checked_order(system, order)
    total = sum(order)
    if total not in (1, 2):
        raise NotImplementedError("finite differences cover total order <= 2")
    tol = min(1e-13, h ** (total + 1) * 1e-3)
    xs = np.asarray(xs, dtype=float)
    free = p.as_floats().free
    try:    # (stencil weight, moved weights) per stencil point
        moved = [(math.prod(c for _, c in st),
                  ProbVector.of(*[f + k * h for f, (k, _) in zip(free, st)]))
                 for st in itertools.product(*(_STENCILS[n] for n in order))]
    except ConfigurationError:
        raise ValueError(f"h = {h} moves a weight out of (0, 1)") from None
    return sum(c * cdf_values(system, q, xs, tol=tol) for c, q in moved) \
        / (2 ** order.count(1) * h ** total)


# (offset in steps of h, integer weight) of the central stencil per order
_STENCILS = {0: ((0, 1),), 1: ((1, 1), (-1, -1)), 2: ((1, 1), (0, -2), (-1, 1))}


def _checked_order(system: IFSystem, order: Sequence[int],
                   name: str = "order") -> tuple:
    """The multi-index as a tuple of ints, one per free weight; ValueError
    on a wrong length, naming the argument, or on a negative component."""
    order = _checked_box(order)
    s = system.branch_count - 1
    if len(order) != s:
        raise ValueError(f"{name} needs {s} components, got {len(order)}")
    return order


def _checked_box(n_max: Sequence[int]) -> tuple:
    """n_max as a tuple of ints; ValueError on a negative component."""
    n_max = tuple(int(v) for v in n_max)
    if any(v < 0 for v in n_max):
        raise ValueError(f"orders must be non-negative: {n_max}")
    return n_max
