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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .ifs import IFSystem, ProbVector, _branch_on_array, _coding_for, _walk
from .transition import GridFunction, apply_transition, cdf_values

# ---------------------------------------------------------------------------
# multi-index bookkeeping


def index_set(n_max: Sequence[int]) -> list:
    """Downward-closed box of multi-indices below n_max, sorted by weight."""
    ranges = [range(int(v) + 1) for v in n_max]
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
    s = len(n_max)
    if not 1 <= symbol <= s + 1:
        raise ValueError(f"symbol {symbol} out of range for {s} free weights")
    indices = index_set(n_max)
    pos = _positions(indices)
    rational = p.is_rational
    d = len(indices)
    mat = np.zeros((d, d), dtype=object if rational else float)
    w = p[symbol] if rational else float(p[symbol])
    for n in indices:
        i = pos[n]
        mat[i, i] = w
        if symbol <= s:
            j = symbol - 1
            if n[j] >= 1:
                below = n[:j] + (n[j] - 1,) + n[j + 1:]
                mat[i, pos[below]] = (Fraction(n[j]) if rational else float(n[j]))
        else:
            for j in range(s):
                if n[j] >= 1:
                    below = n[:j] + (n[j] - 1,) + n[j + 1:]
                    mat[i, pos[below]] = (-Fraction(n[j]) if rational
                                          else -float(n[j]))
    return mat


def cocycle_matrix(word: Sequence[int], p: ProbVector, n_max: Sequence[int],
                   normalized: bool = False) -> Cocycle:
    """Ordered product of step matrices along the word.

    The normalized variant divides each factor by its weight, keeping unit
    diagonal; entries then grow only polynomially in the word length, so
    long products stay finite where the raw product would underflow.
    """
    word = tuple(word)
    if not word:
        raise ValueError("empty word")
    steps = {}
    for sym in set(word):
        m = step_matrix(sym, p, n_max)
        if normalized:
            m = m / (p[sym] if p.is_rational else float(p[sym]))
        steps[sym] = m
    out = steps[word[0]]
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
    vector is minus the zero column of the word's step-matrix product.
    """
    if n_max is None:
        n_max = (2,) * (system.branch_count - 1)
    coc = cocycle_matrix(word, p, n_max, normalized=False)
    return IncrementVector(indices=coc.indices, entries=-coc.matrix[:, 0],
                           word=tuple(word))


# ---------------------------------------------------------------------------
# pointwise evaluation by telescoping cylinder rises


def eval_derivative_point(system: IFSystem, p: ProbVector, order: Sequence[int],
                          x, depth: int = 80, tol: float = 0.0,
                          growth_bound: Optional[float] = None):
    """Value of the order-n weight derivative of the cdf at x, with an error
    bound.

    Telescopes cylinder rises of all same-depth siblings left of the coding
    of x; the tail over the unresolved cylinder is bounded through the
    certified polynomial growth of normalized step products
    (`growth_constant`).  Points that land in a gap or park on a hull
    endpoint resolve exactly (the remaining contribution has closed form);
    otherwise the walk stops at ``depth`` or when the undecided mass falls
    below ``tol``.  A NaN x raises ValueError.
    """
    order = tuple(int(v) for v in order)
    s = system.branch_count - 1
    if len(order) != s:
        raise ValueError(f"order needs {s} components, got {len(order)}")
    if sum(order) == 0:
        raise ValueError("zero order is the cdf itself; use eval_cdf")

    a, b = system._coding.hull
    rational = p.is_rational and system.is_rational
    zero, one = (Fraction(0), Fraction(1)) if rational else (0.0, 1.0)
    if x <= a or x >= b:
        return zero, 0.0

    tables = _derivative_tables(p, order)
    steps, cols = tables["steps"], tables["cols"]
    # row `order` of the prefix step product, the only row read; `order`
    # sorts last in its index box
    r = np.zeros(len(cols[1]), dtype=object if rational else float)
    r[-1] = one
    value, mass = zero, one
    coding, y0 = _coding_for(system, x)
    a, b = coding.hull
    for y, sym, gap in _walk(coding, y0, depth):
        if y == a:
            return value, 0.0
        if y == b:
            return value + np.dot(r, _parked_tail(steps[s + 1], cols, s,
                                                  rational)), 0.0
        # left siblings; in a gap, the windows left of y
        for j in range(1, sym):
            value = value + np.dot(r, cols[j])
        if gap:
            return value, 0.0
        r = np.dot(r, steps[sym])
        mass *= p[sym]
        if tol and float(mass) <= tol:
            break
    if growth_bound is None:
        if "growth" not in tables:
            tables["growth"] = growth_constant(system, p, order)
        growth_bound = tables["growth"]
    err = growth_bound * float(mass) * max(depth, 1) ** sum(order)
    return value, err


def _derivative_tables(p: ProbVector, order: tuple) -> dict:
    """Step matrices ("steps") and their zero columns ("cols") of one weight
    vector and order, built once per ProbVector instance; "growth" joins
    them at the first call that needs `growth_constant`, which depends on
    the weights and the order alone."""
    key = ("derivative", order)
    tables = p._memo.get(key)
    if tables is None:
        steps = {i: step_matrix(i, p, order) for i in range(1, len(order) + 2)}
        cols = {i: m[:, 0].copy() for i, m in steps.items()}
        for m in (*steps.values(), *cols.values()):
            m.flags.writeable = False
        tables = p._memo[key] = {"steps": steps, "cols": cols}
    return tables


def _parked_tail(step_last, cols, s, rational):
    """Solve (I - S) w = sum of free-symbol zero columns, S the last-symbol
    step; the remaining contribution of an orbit parked on the right hull
    endpoint is prefix @ w."""
    d = step_last.shape[0]
    c = sum(cols[j] for j in range(1, s + 1))
    m = -step_last.copy()
    for i in range(d):
        m[i, i] = m[i, i] + (Fraction(1) if rational else 1.0)
    # lower triangular in the sorted index order: forward substitution
    w = np.zeros(d, dtype=object if rational else float)
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
    matrices depend on the weights and n_max alone, not on the branches.
    """
    pf = p.as_floats()
    s = len(n_max)
    eye = np.eye(len(index_set(n_max)))
    a = np.max([np.abs(step_matrix(i, pf, n_max) / float(pf[i]) - eye)
                for i in range(1, s + 2)], axis=0)
    term = total = eye
    for r in range(1, sum(n_max) + 1):
        term = term @ a / r
        total = total + term
    return float(total.max())


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
                     nodes: np.ndarray, terms: int = 80, tol: float = 1e-12,
                     cdf_tol: float = 1e-14) -> dict:
    """Grids of every derivative up to ``order`` via the averaged series.

    Each order-n profile solves profile = M profile + source, where M is the
    branch-averaging operator and the source couples one order lower through
    compositions with the branches.  The Neumann series of that equation is
    summed on the grid until terms die below tol or the budget runs out; the
    tail estimate extrapolates the last term geometrically.  Non-decaying
    terms mark the result as not converged.  The tail estimate is not an
    error bound at nodes that the branches do not map onto nodes, where
    the series interpolates (ROADMAP item 2); the CLI evaluates with
    `eval_derivative_point` instead.
    """
    order = tuple(int(v) for v in order)
    s = system.branch_count - 1
    if len(order) != s:
        raise ValueError(f"order needs {s} components, got {len(order)}")
    nodes = np.asarray(nodes, dtype=float)
    pf = p.as_floats()

    out = {}
    base = GridFunction(nodes, cdf_values(system, pf, nodes, tol=cdf_tol),
                        boundary_left=0.0, boundary_right=1.0)
    zero_order = (0,) * s
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
            if sups[-1] < tol:
                break
        tail, converged = _tail_estimate(sups, tol)
        out[m] = DerivativeGrid(
            grid=GridFunction(nodes, total, 0.0, 0.0), order=m, terms=used,
            tail_estimate=tail, converged=converged)
    return out


def eval_derivative_grid(system: IFSystem, p: ProbVector, order, nodes,
                         terms: int = 80, tol: float = 1e-12) -> DerivativeGrid:
    """Grid of the order-n weight derivative of the cdf (averaged series)."""
    return derivative_grids(system, p, order, nodes, terms, tol)[
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


def _tail_estimate(sups, tol):
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
                  h: float = 1e-4, tol: Optional[float] = None):
    """Central finite differences of the cdf in the free weights.

    Supports total order one and two (including mixed).  The evaluation
    tolerance defaults to a small multiple of h^(|order|+1) so stencil
    cancellation keeps clear of evaluator noise.
    """
    order = tuple(int(v) for v in order)
    s = system.branch_count - 1
    if len(order) != s:
        raise ValueError(f"order needs {s} components, got {len(order)}")
    total = sum(order)
    if tol is None:
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
    if total == 2 and 2 in order:
        k = order.index(2)
        e = [h if i == k else 0.0 for i in range(s)]
        ne = [-v for v in e]
        return (T(e) - 2 * T([0.0] * s) + T(ne)) / h ** 2
    if total == 2:
        k, l = [i for i, v in enumerate(order) if v == 1]
        def shift(sk, sl):
            return [sk * h if i == k else (sl * h if i == l else 0.0)
                    for i in range(s)]
        return (T(shift(1, 1)) - T(shift(1, -1))
                - T(shift(-1, 1)) + T(shift(-1, -1))) / (4 * h ** 2)
    raise NotImplementedError("finite differences cover total order <= 2")
