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

from .ifs import IFSystem, ProbVector, _branch_on_array, _checked_word, \
    _coding_for, _walk, _walk_weights
from .transition import GridFunction, apply_transition, cdf_values

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
    the arithmetic that `eval_derivative_point` walks in.
    """
    if n_max is None:
        n_max = (2,) * (system.branch_count - 1)
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
    that cylinder.  Points that land in a gap or park on a hull
    endpoint resolve exactly (the remaining contribution has closed form);
    otherwise the walk stops at ``depth``.  A NaN x raises ValueError.
    """
    order = _checked_order(system, order)
    if sum(order) == 0:
        raise ValueError("zero order is the cdf itself; use eval_cdf")

    q = _walk_weights(system, p)
    zero, one = q._unit
    a, b = system._coding.hull
    if x <= a or x >= b:
        return zero, 0.0

    table = _derivative_tables(q, order)
    steps, cols = table["steps"], table["cols"]
    # row `order` of the prefix step product, the only row read; `order`
    # sorts last in its index box
    r = np.zeros(len(cols[1]), dtype=cols[1].dtype)
    r[-1] = one
    value, mass = zero, one
    coding, y0 = _coding_for(system, x)
    a, b = coding.hull
    for y, sym, gap in _walk(coding, y0, depth):
        if y == a:
            return value, 0.0
        if y == b:
            return value + np.dot(r, table["tail"]), 0.0
        # left siblings; in a gap, the windows left of y
        for j in range(1, sym):
            value = value + np.dot(r, cols[j])
        if gap:
            return value, 0.0
        r = np.dot(r, steps[sym])
        mass *= q[sym]
    err = table["growth"] * float(mass) * max(depth, 1) ** sum(order)
    return value, err


def _derivative_tables(q: ProbVector, n_max: tuple) -> dict:
    """Everything the coding walk reads about one weight vector and index
    box, built once per ProbVector instance, in read-only arrays: the step
    matrices ("steps") and their zero columns ("cols") in q's own
    arithmetic, the parked-endpoint tail ("tail") and the growth constant
    ("growth"), which is a float and comes from q's float twin."""
    key = ("derivative", n_max)
    table = q._memo.get(key)
    if table is None:
        s = len(n_max)
        steps = {i: step_matrix(i, q, n_max) for i in range(1, s + 2)}
        cols = {i: m[:, 0].copy() for i, m in steps.items()}
        tail = _parked_tail(steps[s + 1], sum(cols[j] for j in range(1, s + 1)))
        for m in (*steps.values(), *cols.values(), tail):
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
        table = q._memo[key] = {"steps": steps, "cols": cols, "tail": tail,
                                "growth": growth}
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
    for m in index_set(order):
        if m == zero_order:
            continue
        source = _source_grid(system, pf, m, out)
        total = source.values.copy()
        term = source
        sups = [float(np.max(np.abs(term.values)))]
        used = 1
        for _ in range(terms - 1):
            term = apply_transition(system, pf, term)
            total += term.values
            sups.append(float(np.max(np.abs(term.values))))
            used += 1
            if sups[-1] < 1e-12:
                break
        tail, converged = _tail_estimate(sups)
        out[m] = DerivativeGrid(
            grid=GridFunction(nodes, total, 0.0, 0.0), order=m, terms=used,
            tail_estimate=tail, converged=converged)
    return out


def eval_derivative_grid(system: IFSystem, p: ProbVector, order, nodes,
                         terms: int = 80) -> DerivativeGrid:
    """Grid of the order-n weight derivative of the cdf (averaged series)."""
    return derivative_grids(system, p, order, nodes, terms)[
        tuple(int(v) for v in order)]


def _source_grid(system, p, m, grids) -> GridFunction:
    s = system.branch_count - 1
    nodes = grids[(0,) * s].grid.nodes
    vals = np.zeros_like(nodes)
    last = system.branch(s + 1)
    for j in range(s):
        if m[j] == 0:
            continue
        below = grids[m[:j] + (m[j] - 1,) + m[j + 1:]].grid
        fj = _branch_on_array(system.branch(j + 1), nodes)
        fl = _branch_on_array(last, nodes)
        vals += m[j] * (below(fj) - below(fl))
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
    stencil cancellation keeps clear of evaluator noise.
    """
    order = _checked_order(system, order)
    total = sum(order)
    if total not in (1, 2):
        raise NotImplementedError("finite differences cover total order <= 2")
    tol = min(1e-13, h ** (total + 1) * 1e-3)
    xs = np.asarray(xs, dtype=float)
    free = [float(w) for w in p.free]

    def term(stencil):
        moved = [f + k * h for f, (k, _) in zip(free, stencil)]
        return math.prod(c for _, c in stencil) * cdf_values(
            system, ProbVector.of(*moved), xs, tol=tol)

    stencils = itertools.product(*(_STENCILS[n] for n in order))
    return sum(map(term, stencils)) / (2 ** order.count(1) * h ** total)


# (offset in steps of h, integer weight) of the central stencil per order
_STENCILS = {0: ((0, 1),), 1: ((1, 1), (-1, -1)), 2: ((1, 1), (0, -2), (-1, 1))}


def _checked_order(system: IFSystem, order: Sequence[int]) -> tuple:
    """The multi-index as a tuple of ints, one per free weight; ValueError
    on a wrong length or a negative component."""
    order = _checked_box(order)
    s = system.branch_count - 1
    if len(order) != s:
        raise ValueError(f"order needs {s} components, got {len(order)}")
    return order


def _checked_box(n_max: Sequence[int]) -> tuple:
    """n_max as a tuple of ints; ValueError on a negative component."""
    n_max = tuple(int(v) for v in n_max)
    if any(v < 0 for v in n_max):
        raise ValueError(f"orders must be non-negative: {n_max}")
    return n_max
