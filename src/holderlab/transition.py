"""Transition operator of the random orbit and its limit profile.

The operator averages a bounded function over one random branch step,
(M h)(x) = sum_i p_i h(f_i(x)).  Iterating it on any bounded h with limits
at minus/plus infinity converges to an affine image of a single profile:
the probability, as a function of the start point, that the random orbit
drifts to plus infinity.  That profile is the distribution function of the
stationary measure of the backward walk, so this module calls it the cdf.
It is also the unique bounded fixed point of M with boundary values 0 and 1.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ifs import (
    IFSystem,
    ProbVector,
    attractor_hull,
    compactify,
    compactified_gap_factor,
    _apply_branches,
    _birkhoff,
    _branch_on_array,
    _checked_least,
    _checked_weights,
    _coding_for,
    _cylinder_maps,
    _walk,
    _walk_weights,
)

# ---------------------------------------------------------------------------
# grid functions


@dataclass(frozen=True)
class GridFunction:
    """Piecewise-linear function on a strictly increasing node grid.

    Outside the node span the function takes the boundary constants, which
    stand for the values at minus and plus infinity.
    """

    nodes: np.ndarray
    values: np.ndarray
    boundary_left: float = 0.0
    boundary_right: float = 0.0

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape:
            raise ValueError("nodes and values must be 1-d arrays of equal length")
        # a comparison, not np.diff: nodes 1e308 apart overflow a spacing
        if not np.all(nodes[1:] > nodes[:-1]):
            raise ValueError("nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    def __call__(self, x):
        return np.interp(x, self.nodes, self.values,
                         left=self.boundary_left, right=self.boundary_right)

    def cell_oscillation(self) -> float:
        """Max jump between adjacent nodes, 0.0 on one node; a bound scale
        for interpolation error of monotone-structured data read through
        this grid."""
        return float(np.max(np.abs(np.diff(self.values)), initial=0.0))

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.nodes, values, self.boundary_left,
                            self.boundary_right)


def uniform_grid(system: IFSystem, size: int = 4097,
                 margin: float = 0.25) -> np.ndarray:
    """Uniform nodes over the attractor hull and a margin on each side, a
    fraction of the hull diameter above -0.5; ValueError unless size is at
    least 2 and the margin in range."""
    _checked_least("size", size, 2)
    if not margin > -0.5:
        raise ValueError(f"margin must be above -0.5, got {margin}")
    a, b = (float(t) for t in attractor_hull(system))
    pad = margin * (b - a)
    return np.linspace(a - pad, b + pad, size)


# ---------------------------------------------------------------------------
# cdf evaluation by cylinder mass accumulation


def eval_cdf(system: IFSystem, p: ProbVector, x, tol: float = 1e-12,
             max_depth: int = 100_000):
    """Value of the limit cdf at x with a guaranteed error bound.

    Walks the coding of x (`_walk`), accumulating the mass of branch
    choices whose orbit escapes to plus infinity before the orbit of x
    leaves resolution.  Stops once the undecided cylinder mass drops to
    tol, or exactly when the walk reports the orbit parked on a hull
    endpoint, which happens at every cylinder endpoint in rational
    arithmetic.  Returns (value, error_bound); a NaN x, a tol that is not
    > 0 or a max_depth that is not an integer of at least 0 raises
    ValueError.  With a rational system and weights, the accumulated and
    the undecided mass after k steps are kept as integer numerators over
    d^k, d the common denominator of the weights, and the value is one
    Fraction at the end.  A float x on a rational system walks as the
    Fraction it equals.  A float x on a system with an L-symbol table walks
    L symbols per lookup, with the events of the one-symbol walk, and the
    accumulation still takes one symbol at a time: the value and bound are
    those of the one-symbol walk, bit for bit.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    _checked_least("max_depth", max_depth, 0)
    a, b = system._coding.hull
    q = _walk_weights(system, p)
    zero, one = q._unit
    if x <= a:
        return zero, 0.0
    if x >= b:
        return one, 0.0
    num = q._numerators
    # acc and mass are numerators over scale = d^k, which stays 1 unless num
    d, weights, left = num or (1, q.weights, q._left)
    acc, mass = (0, 1) if num else (zero, one)
    scale = 1
    for events in _walk(*_coding_for(system, x), max_depth):
        for park, sym, gap in events:
            if float(mass / scale) <= tol:
                break
            if park:
                # parked on a hull end: all of the mass drifts down at the
                # left one, up at the right one
                if park > 0:
                    acc += mass
                mass = 0
                break
            # in a gap, the branches whose windows lie left of y escape up
            acc = acc * d + mass * left[sym - 1]
            scale *= d
            if gap:
                mass = 0
                break
            mass *= weights[sym - 1]
        else:
            continue
        break
    return (Fraction(acc, scale) if num else acc), float(mass / scale)


def cdf_values(system: IFSystem, p: ProbVector, xs, tol: float = 1e-12,
               max_depth: int = 100_000) -> np.ndarray:
    """Vectorised eval_cdf over an array of points; tol may be 0.  A NaN
    point, a NaN or negative tol, or a max_depth that is not an integer of
    at least 0 raises ValueError.

    Each step of the walk (`_orbit_tables`) is one region lookup in a
    table of the floats that `eval_cdf`'s step compares a point with, so
    at tol 0, and on a system without an L-symbol table (a custom branch,
    or more than 16 branches), every system that is not rational stops
    where `eval_cdf` stops and carries its bits, with float weights and
    with rational ones (both walks read `p.as_floats()`).  At tol > 0 an
    affine system takes L symbols per lookup on the same float orbit: by
    composed maps where every float step is exact (slopes 2^k,
    Sterbenz-exact intercepts, float composed intercepts), else by
    replaying the region's L float steps.  Its masses are the bits of L
    one-symbol steps, but it decides a point only at the end of a block,
    so it may stop up to L - 1 symbols later, with a smaller undecided
    mass: its value lies within `eval_cdf`'s bound of `eval_cdf`'s value,
    up to a few ulps of rounding, but it is not `eval_cdf`'s float.  A
    rational system's points walk its float image here, where `eval_cdf`
    walks each float exactly.  A value never depends on the other points
    of the batch.  A region lookup is searchsorted(keys, y, "right") in
    the table's cuts, read off a bucket index for most points of a large
    step on an L-symbol table (note 5 of `_orbit_tables`), which changes
    no bit."""
    if not tol >= 0:
        raise ValueError("tol must be 0 or positive")
    _checked_least("max_depth", max_depth, 0)
    xs = np.asarray(xs, dtype=float)
    if np.isnan(xs).any():
        raise ValueError("x must not be NaN")
    state = _orbit_start(system, xs.ravel())
    _orbit_tables(system, p, state, tol=tol, max_depth=max_depth)
    return state[1].reshape(xs.shape)


def _orbit_start(system: IFSystem, xs: np.ndarray):
    """Walk state (y, acc, mass) of float points before their first step:
    y the orbit points, acc the escaped-up mass, mass the undecided mass.
    A point at or left of the hull is decided at 0, at or right of it at 1.
    """
    a, b = (float(t) for t in system._coding.hull)
    y = xs.astype(float)
    return (y, np.where(y >= b, 1.0, 0.0),
            np.where((y <= a) | (y >= b), 0.0, 1.0))


def _orbit_tables(system: IFSystem, p: ProbVector, state: tuple, tol: float,
                  max_depth: int) -> None:
    """Shared vectorised coding walk, for every system: advances the state
    of `_orbit_start` in place by at most max_depth steps.  The step loop
    itself is the generator `_orbit_steps`, which this function runs until
    its last step or until no point is undecided; the gap probe's
    `_ramp_iterates` steps the same generator one iterate at a time.

    Every step is one region lookup: `ifs._FloatTable.region` finds each
    point's region r, searchsorted(keys, y, "right") in the table's sorted
    cuts, and the step adds mass * acc[r] to acc and
    multiplies mass by m[r], writes back the points whose mass is then at
    most tol, with the y they had before the step, and maps the others by
    the region's maps, y <- s[r] y + c[r] for each row (s, c) of
    `ifs._FloatTable.maps` (on custom branches, `_apply_branches` on the
    region's window).  A decided point is never stepped again, here or
    in a later call, as in `eval_cdf`.  So a point's values do not depend
    on the other points of the batch, and at tol 0, n calls of one step give
    the bits of one call of n steps.

    The one-symbol table (`IFSystem._step`, an `ifs._FloatTable` whose
    masses `_masses` folds once per weights instance) is cut by the float
    hull ends and window edges, the set E of floats that the window rule
    compares y with, so a region's floats make its one decision; its
    masses are the terms of `eval_cdf`'s step: cum[k] and weights[k] in
    window k, cum[k] and 0 in a gap, 1 or 0 and 0 on the right or left end.

    At tol > 0, on an affine system with increasing branches, each step
    takes L symbols: L is the largest length with d^L <= `_CYLINDERS`, d
    the branch count, and the table is `IFSystem._cylinders`.  The symbols
    max_depth leaves after its last whole block take the one-symbol step,
    as does every call at tol 0 and every system with a custom branch or
    more than 16 branches.  A point is decided only at the end of a block,
    so it may stop up to L - 1 symbols later than `eval_cdf` and carry a
    smaller undecided mass.

    1. The one-symbol step y -> fl(s y + c) of a region that moves is
       monotone, since s > 0 and rounding is monotone, and so is a region
       lookup.  So for each cut t of L - 1 symbols the floats of a
       one-symbol region whose image reaches t form an upper end of the
       region.  `ifs._level_cuts` cuts at the least float of each such end
       (found by bisection on the floats' order, checked with the step
       itself) and at the one-symbol keys; a region that does not move
       keeps its point.  So, by induction on the level, every float of a
       region of L symbols makes the L one-symbol decisions of the region's
       first float and steps by the same L maps: it takes one path.
    2. `ifs._cylinder_table` gathers the one-symbol decisions along that
       path into the table's L rows, and its maps.  On a system whose every
       float step is exact (every slope 2^k, every slope and intercept a
       float, and on the float window [u, v] of each branch either c = 0,
       or s y and -c share a sign and lie within a factor of two of each
       other at u and v, hence on [u, v], by Sterbenz's lemma) the float
       orbit along a word w is the real A_w y + B_w, A_w the product of
       the slopes, powers of two, so A_w y is exact; where every B_w =
       y_1 - A_w r_1 (y_1 the L-th orbit point of the first float r_1) is
       a float, which a TwoSum error term checks exactly, fl(A_w y + B_w)
       is the L-th orbit point of every float y of the region, and the
       table keeps A_w and B_w (a region of one float keeps its point,
       A_w = 0).  Everywhere else it keeps the path's L maps (s, c), and a
       block replays them, y <- s y + c, which is the float orbit by 1.
    3. `_masses` starts acc_w and m_w at 0 and 1 and folds the terms of
       the gathered rows by the one-symbol step's own operations,
       acc <- acc + mass acc_1, then mass <- mass m_1; once a step decides
       the point (mass 0), the later ones add 0 to acc.  So a block's
       masses are the bits of L one-symbol steps from mass 1, with their
       tie, gap and parking rules; the walk multiplies them into its
       running masses in one step, so its sums lie within a few ulps of
       `eval_cdf`'s beyond the undecided mass.
    4. The scalar walk `_walk` reads the same regions for a float point
       on a system that is not rational (`ifs._walk_table`), and no other
       table.  The one-symbol table `_Coding.table` makes this step's
       decisions (the window rule, parking on a hull end) with the same
       float maps once its breaks are the float hull ends and window
       edges, which `ifs._walk_table` requires; the walk's events are the
       gathered decisions, and a parked region maps to its window's float
       image of the hull end.  So by 1 every float of a region makes the
       events of its path, and by 2 the walk may jump to its L-th orbit
       point.  With k < L symbols left it yields the region's first k
       events and stops: by 1 they are the first k one-symbol events of
       every float of the region.  Its consumers keep their one-symbol
       arithmetic, so they keep their bits.
    5. The lookup is exact, so the index it reads changes no bit.  On a
       table of more than 64 keys and a step on at least 256 points it
       reads a bucket index: about 32 equal buckets per key over
       [keys[0], keys[-1]], and y's bucket floor(fl(fl(clip(y) - keys[0])
       * scale)), a chain of monotone roundings, by which the keys are
       bucketed too.  So every key of a lower bucket than y's is at most
       y and every key of a higher one exceeds it, and where y's bucket
       holds no key its region is the number of keys below that bucket,
       one gather; the rest take the binary search.  The one-symbol tables
       (6-12 keys) and small steps keep the binary search, which is faster
       there; the constants of `ifs._FloatTable.region` give the
       measurements.
    """
    for idx, *_ in _orbit_steps(system, p, state, tol, max_depth):
        if not idx.size:
            break


def _orbit_steps(system: IFSystem, p: ProbVector, state: tuple, tol: float,
                 max_depth: int):
    """The one step loop of the array walk (`_orbit_tables` gives its
    rules and proof), as a generator: after each of at most max_depth
    steps it yields (idx, y, acc, mass) of the undecided points, compact,
    idx their indices into the state, and it keeps yielding empty arrays
    once no point is undecided.  The decided points are written back into
    the state as they are decided, and the undecided ones when the steps
    run out; the caller must not change the yielded arrays.  A step finds
    the regions by `ifs._FloatTable.region` (note 5 of `_orbit_tables`):
    by the bucket index on an L-symbol table and a step on at least 256
    points, else by `searchsorted`."""
    one = _masses(system, p, system._step)
    cyl = system._cylinders if tol > 0 else None
    block = cyl and _masses(system, p, cyl)
    blocks, rest = divmod(max_depth, len(cyl.park)) if cyl else (0, max_depth)
    ys, accs, masses = state
    idx = np.flatnonzero(masses > tol)
    y, acc, mass = ys[idx], accs[idx], masses[idx]
    for step in range(blocks + rest):
        if idx.size:
            table, acc_t, mass_t = block if step < blocks else one
            r = table.region(y)
            acc = acc + mass * acc_t[r]
            mass = mass * mass_t[r]
            done = mass <= tol
            # count_nonzero asks "any?" at a third of the cost of any()
            if np.count_nonzero(done):
                k = done.nonzero()[0]
                gone = idx[k]
                ys[gone] = y[k]
                accs[gone] = acc[k]
                masses[gone] = mass[k]
                keep = (~done).nonzero()[0]
                idx, y, acc, mass, r = (c[keep]
                                        for c in (idx, y, acc, mass, r))
            if table.slope is None:
                y = _apply_branches(system, table.window[0][r], y)
            for s, c in table.maps:
                y = s[r] * y + c[r]
        yield idx, y, acc, mass
    ys[idx] = y
    accs[idx] = acc
    masses[idx] = mass


def _masses(system: IFSystem, p: ProbVector, table) -> tuple:
    """(table, acc_w, m_w) of an `ifs._FloatTable`: the escaped and the
    undecided mass of each region's L one-symbol steps from mass 1, bit
    for bit, built once per weights instance from `p.as_floats()` by
    folding each step's terms (`_FloatTable.terms`) with the one-symbol
    step's own operations."""
    masses = p._memo.get(table)
    if masses is None:
        weights, cum = _checked_weights(system, p)._float_weights
        steps = zip(np.append(cum, [0.0, 1.0])[table.terms[0]],
                    np.append(weights, 0.0)[table.terms[1]])
        acc, mass = next(steps)  # the first step, from acc 0 and mass 1
        for a, m in steps:
            # written into the gathered rows
            acc = np.add(acc, np.multiply(mass, a, out=a), out=a)
            mass = np.multiply(mass, m, out=m)
        masses = p._memo[table] = acc, mass
    return (table,) + masses


def cdf_grid(system: IFSystem, p: ProbVector) -> GridFunction:
    """The cdf at tol 1e-13 on `uniform_grid`'s 4097 nodes (margin 0.25)."""
    nodes = uniform_grid(system)
    return GridFunction(nodes, cdf_values(system, p, nodes, tol=1e-13),
                        boundary_left=0.0, boundary_right=1.0)


# ---------------------------------------------------------------------------
# operator application and iteration


def apply_transition(system: IFSystem, p: ProbVector,
                     h: GridFunction) -> GridFunction:
    """One averaging step (M h)(x) = sum_i p_i h(f_i(x)) on the grid, with
    `GridFunction.__call__`'s bits; ValueError on a grid of no node or with
    a value or boundary that is not finite."""
    _checked_grid(h)
    n = h.nodes.size
    values, _, _ = next(_iterates(h, _branch_images(system, p, h.nodes),
                                  np.arange(n), [n]))
    return h.with_values(values)


def _checked_grid(h: GridFunction) -> None:
    """ValueError unless h's values and boundaries are finite."""
    if not (np.isfinite(h.values).all() and math.isfinite(h.boundary_left)
            and math.isfinite(h.boundary_right)):
        raise ValueError("the grid needs finite values and boundaries")


def _branch_images(system: IFSystem, p: ProbVector, nodes) -> tuple:
    """(w, jv, js, dx, odd): the weights p_i of `p.as_floats()` as a column
    and the stencil (`_stencil`) of the branch images f_i(nodes), one row
    per branch."""
    weights = _checked_weights(system, p)._float_weights[0]
    images = np.array([_branch_on_array(br, nodes) for br in system.branches])
    return (weights[:, None], *_stencil(nodes, images))


def _stencil(nodes: np.ndarray, y: np.ndarray) -> tuple:
    """(jv, js, dx, odd) of the points y (any shape) on the n nodes:
    np.interp's value at y of the values g with boundaries l and r is
    slopes[js] * dx + [g..., l, r][jv], slopes = [diff(g) / diff(nodes)...,
    -0.0], np.interp's own slope expression.

    A point strictly between nodes j and j + 1 reads jv = js = j and
    dx = y - nodes[j], which is np.interp's formula.  Every other point
    reads the -0.0 slope (js = n - 1) with dx = 0.0, and x + (-0.0) is x
    for every x: a point on node j reads jv = j (the last node too), one
    left of the nodes jv = n and one right of them n + 1.  With finite
    values the formula gives np.interp's float, unless np.interp falls back
    on its NaN branch: at a NaN point, and across a spacing that is not
    finite (an infinite node, or two that overflow), where the formula can
    make inf times 0.  Those points are odd: odd is None, or their flat
    places in y and the points, which `_interpolated` reads through
    np.interp.  ValueError on no node."""
    n = nodes.size
    if not n:
        raise ValueError("the grid needs at least one node")
    j = nodes.searchsorted(y, side="right") - 1
    at = nodes[np.maximum(j, 0)]
    inside = (j < n - 1) & (y > at)
    jv = np.where(y > nodes[-1], n + 1, np.where(j < 0, n, j))
    js = np.where(inside, j, n - 1)
    with _silent():
        dx = np.where(inside, y - at, 0.0)
        spacing = nodes[1:] - nodes[:-1]
    odd = np.isnan(y)
    if not np.isfinite(spacing).all():
        odd |= ~np.isfinite(np.append(spacing, 0.0)[js])
    odd = odd.ravel().nonzero()[0]
    if not odd.size:
        return jv, js, dx, None
    # the formula's float at an odd point is replaced, and 0 * 0 is silent
    js.flat[odd], dx.flat[odd] = n - 1, 0.0
    return jv, js, dx, (odd, y.flat[odd])


def _interpolated(h: GridFunction, ext: np.ndarray, slopes: np.ndarray,
                  stencil: tuple) -> np.ndarray:
    """np.interp's values of h's interpolant at the points of the stencil
    (w, jv, js, dx, odd), in jv's shape, from ext = [values..., left,
    right] and slopes = [diff(values) / diff(nodes)..., -0.0] of h's nodes
    (`_reads`).  Call it under `_silent()`."""
    _, jv, js, dx, odd = stencil
    r = slopes[js] * dx + ext[jv]
    if odd:
        k, y = odd
        r.flat[k] = h.with_values(ext[:-2])(y)
    return r


def _read(h: GridFunction, stencils: tuple) -> np.ndarray:
    """h's interpolant at the points of the stencils, with np.interp's
    bits: `_interpolated` of h's values."""
    with _silent():
        return _interpolated(h, *_reads(h), stencils)


def _silent():
    """np.interp's silence, for the stencils and their reads: no warning
    where a spacing, a slope or the formula overflows, or where a slope is
    inf / inf across a spacing that is not finite.  Entering the context
    costs about a microsecond, a tenth of a step on a few hundred nodes."""
    return np.errstate(over="ignore", invalid="ignore")


def _reads(h: GridFunction):
    """(ext, slopes) of h: what `_interpolated` reads.  Call it under
    `_silent()`."""
    ext = np.concatenate([h.values, [h.boundary_left, h.boundary_right]])
    slopes = np.full(h.values.size, -0.0)
    np.divide(ext[1:-2] - ext[:-3], h.nodes[1:] - h.nodes[:-1],
              out=slopes[:-1])
    return ext, slopes


# a freeze round that leaves out fewer than 1 / _ROUND_GAIN of the nodes
# still stepped ends the rounds: runs take 40 to 80 steps
_ROUND_GAIN = 64


def _freeze_order(stencils: tuple, n: int):
    """(order, sizes): the n nodes in the order in which `_iterates` steps
    them, and sizes[t] the number of nodes that step t computes, the last
    one at every later step; step t computes the nodes order[:sizes[t]].

    A node is final once the nodes its stencils read are final: the node
    jv and, where it interpolates (js < n - 1), jv + 1; a boundary constant
    (jv = n or n + 1) always is.  Let F be the final nodes before step t;
    their values stay fixed from then on.  A node of step t whose reads
    all lie in F gets a value that every later step would compute again
    from the same floats, so it is final after step t, and the later steps
    leave it out.  The rule reads the stencils alone, not the values, so
    it runs here once, before any step: round t finds the nodes final
    after step t, and F only grows.  The rounds end at the first that
    leaves out fewer than 1 / `_ROUND_GAIN` of the nodes still stepped;
    the nodes it would have left out are stepped on, and a final node
    stepped again keeps its bits.  The order puts the nodes still stepped
    at the end first, ascending, then the nodes of each round, the last
    round first, so the nodes of a step are a prefix of the order.  A
    stencil with odd points (`_stencil`) indexes the nodes in their own
    order, so then every node is stepped."""
    todo = np.arange(n)
    _, jv, js, _, odd = stencils
    if odd:
        return todo, [n]
    # the reads of every branch: jv, then jv + 1 where it interpolates
    reads = np.concatenate([jv, jv + (js < n - 1)])
    final = np.zeros(n + 2, dtype=bool)
    final[n:] = True
    rounds, sizes = [], [n]
    while True:
        ready = np.logical_and.reduce(final[reads])
        done = todo[ready]
        # a round costs about one step over the nodes still stepped, and
        # saves at most one of them per later step for each node it finds
        if done.size * _ROUND_GAIN < todo.size:
            break
        rounds.append(done)
        final[done] = True
        keep = (~ready).nonzero()[0]
        todo, reads = todo[keep], reads.take(keep, 1)
        sizes.append(todo.size)
    return np.concatenate([todo] + rounds[::-1]), sizes


def _iterates(h: GridFunction, stencils: tuple, order: np.ndarray,
              sizes: list):
    """The iterates of the operator from h, sum_i p_i g(f_i(x)) at h's
    nodes with g the interpolant of the last iterate and h's boundary
    values, the images f_i(nodes) read by their stencils (`_branch_images`),
    without end: the one step loop of `apply_transition`, `iterate_transition`
    and the Neumann series of `takagi.derivative_grids`.  Step t computes
    the nodes order[:sizes[t]] (the last size at every later step), which
    `_freeze_order` gives, or every node, in order, with (arange(n), [n]).

    After each step it yields (values, new, keep): values the iterate at
    every node, new the step's values at order[:new.size], and keep the
    number of them that the next step computes again; the others are
    final.  So every step gives every node the bits of stepping them all.
    A step recomputes only the slopes of the intervals between the lowest
    and the highest node that the last step computed: the others read two
    final values.  The next step overwrites values; the caller must not
    change either array."""
    n = h.nodes.size
    with _silent():
        ext, slopes = _reads(h)
        width = h.nodes[1:] - h.nodes[:-1]
    # an iterate's values are averages of interpolants, within a few ulps
    # of the largest |value| or |boundary|, and its slopes at most twice
    # that over the least spacing: below these bounds no step overflows,
    # and it can skip `_silent()`'s context
    quiet = np.abs(ext).max() <= 1e300 * min(1.0, width.min(initial=1.0))
    silent = contextlib.nullcontext if quiet else _silent
    values = ext[:-2]
    w, jv, js, dx, odd = stencils
    cols = w, jv.take(order, 1), js.take(order, 1), dx.take(order, 1), odd
    idx = order

    def span(s):
        """The views of `_reads`' slope expression over the intervals s."""
        return ext[1:-2][s], ext[:-3][s], width[s], slopes[:-1][s]

    # the intervals whose slopes this step and the next recompute
    now, after = span(slice(0)), span(slice(n))
    rest = iter(sizes[1:])
    while True:
        upper, lower, dw, out = now
        with silent():
            np.divide(upper - lower, dw, out=out)
            new = np.zeros(idx.size)
            for term in w * _interpolated(h, ext, slopes, cols):
                new += term
        ext[idx] = new
        now = after
        keep = next(rest, idx.size)
        yield values, new, keep
        if keep < idx.size:
            idx = idx[:keep]
            cols = (w, *(c[:, :keep].copy() for c in cols[1:4]), odd)
            after = span(slice(max(idx.min() - 1, 0), idx.max() + 1)
                         if keep else slice(0))


@dataclass(frozen=True)
class ConvergenceDiagnostics:
    residuals: np.ndarray      # sup distance to the predicted limit per step
    rate: float                # fitted geometric decay factor
    r_squared: float
    floor: float               # residual plateau set by grid resolution
    n_fit: int                 # number of leading steps used in the fit
    diverged: bool


def iterate_transition(system: IFSystem, p: ProbVector, h0: GridFunction,
                       n_max: int = 80) -> ConvergenceDiagnostics:
    """Iterate the operator from h0 and compare against the predicted limit
    (h0(+inf) - h0(-inf)) * cdf + h0(-inf), the cdf at tol 1e-14.

    The residual sequence decays geometrically until it hits the resolution
    floor of the grid; the decay factor is fitted by `_ls_slope` on the
    pre-floor segment (at least two steps, so n_max >= 2).  A zero residual
    there means the iterates reached the limit: rate 0.0 and R^2 1.0.  A
    grid of no node, or with a value or boundary that is not finite, raises
    ValueError.  The iterates are `apply_transition`'s, bit for bit, but
    each step computes only the nodes that `_iterates` still steps; a
    residual is the max of their deviations and of the running max of the
    final ones, which is the max over every node.
    """
    _checked_least("n_max", n_max, 2)
    _checked_grid(h0)
    lim = (h0.boundary_right - h0.boundary_left) \
        * cdf_values(system, p, h0.nodes, tol=1e-14) + h0.boundary_left
    stencils = _branch_images(system, p, h0.nodes)
    order, sizes = _freeze_order(stencils, h0.nodes.size)
    lim = lim[order]
    residuals = np.empty(n_max)
    # the largest deviation of a node whose value is final
    final = -math.inf
    for n, (_, new, keep) in zip(range(n_max),
                                 _iterates(h0, stencils, order, sizes)):
        dev = np.abs(new - lim[:new.size])
        residuals[n] = np.maximum.reduce(dev, initial=final)
        if keep < new.size:
            final = np.maximum.reduce(dev[keep:], initial=final)

    floor = float(residuals.min())
    above = residuals > max(10 * floor, 1e-300)
    n_fit = max(int(np.argmin(above)) if not above.all() else above.size, 2)
    window = residuals[:n_fit]
    if window.min() > 0:
        slope, _, r2 = _ls_slope(np.arange(1, n_fit + 1), np.log(window))
    else:   # the limit is reached: rate exp(-inf) = 0.0
        slope, r2 = -math.inf, 1.0
    diverged = bool(residuals[-1] > residuals[0] * 10)
    return ConvergenceDiagnostics(residuals=residuals, rate=math.exp(slope),
                                  r_squared=r2, floor=floor, n_fit=n_fit,
                                  diverged=diverged)


# ---------------------------------------------------------------------------
# Hoelder seminorm over grids


def holder_seminorm(h: GridFunction, alpha: float,
                    mode: str = "pairs") -> float:
    """Largest ratio |h(x) - h(y)| / d(x, y)^alpha over grid node pairs.

    mode "pairs" returns the exact maximum over all pairs, mode "adjacent"
    only over neighbours (a fast lower bound).  The virtual points at minus
    and plus infinity, with values boundary_left and boundary_right, always
    join the scan.  "pairs" is `_pairs_max` on one row, the scan the gap
    probe runs on its subsample rows: from the adjacent maximum, over blocks
    of `_BLOCK` compactified nodes cut into sub-blocks of `_FINE`, it
    computes only the ratios of the sub-block pairs whose certified bound
    lies above the running best, each the float an all-pairs scan computes,
    so the maximum is bit-identical to that scan.  Raises ValueError if a
    scanned value is not finite.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    pos = np.concatenate([[-1.0], compactify(h.nodes), [1.0]])
    vals = np.concatenate([[h.boundary_left], h.values, [h.boundary_right]])
    if not np.all(np.isfinite(vals)):
        raise ValueError("holder_seminorm needs finite values")
    if mode == "adjacent":
        return _adjacent(pos, alpha)(vals)
    if mode != "pairs":
        raise ValueError(f"unknown mode {mode!r}")
    return float(_pairs_max(pos, vals[None], alpha, _BLOCK, _FINE, _STEP,
                            [0.0])[0])


# a block pair is skipped only when its bound lies below the running best by
# this relative margin, since libm pow is not monotone to the last bit
_PRUNE_SLACK = 1e-12
_BLOCK = 64     # nodes per block of the "pairs" scan
_FINE = 8       # nodes per sub-block of the "pairs" scan
# block pairs per round of the "pairs" scan: 8 * 64^2 node pairs, whose
# 256 KB temporaries ran faster than 2 MB ones
_STEP = 8
_SUB_BLOCK = 16  # points per block and sub-block of a gap probe's scan
_SUB_STEP = 2    # block pairs per row and round of that scan


def _adjacent(pos: np.ndarray, alpha: float):
    """The largest ratio |vals_{i+1} - vals_i| / (pos_{i+1} - pos_i)^alpha
    over the neighbours with pos_{i+1} > pos_i, 0.0 if there are none, as a
    function of vals, along its last axis (a float for one row): the
    denominators are paid once."""
    dd = pos[1:] - pos[:-1]
    good = dd > 0
    # on a grid without ties every pair counts: no gather
    good = slice(None) if good.all() else good.nonzero()[0]
    den = dd[good] ** alpha

    def ratio(vals):
        dv = np.subtract(vals[..., 1:], vals[..., :-1])
        dv = np.abs(dv, out=dv)[..., good]
        top = np.maximum.reduce(np.divide(dv, den, out=dv), axis=-1,
                                initial=0.0)
        return top if top.ndim else float(top)

    return ratio


def _pairs_max(pos: np.ndarray, rows: np.ndarray, alpha: float, block: int,
               fine: int, step: int, best) -> np.ndarray:
    """Per row of values rows (rows, points), the exact max of
    |v_j - v_i| / (pos_j - pos_i)^alpha over the index pairs i < j with
    pos_j > pos_i and the row's entry of best: the one builder of both
    Hoelder seminorm scans, `holder_seminorm` on one row and a gap probe's
    subsample rows, whose compactified positions pos both callers give
    with the virtual points -1 and 1 in place.

    Each row starts from its entry of best or its own adjacent maximum,
    whichever is larger; then `_pruned_max` scans blocks of `block` points
    and their sub-blocks of `fine` (fine divides block), `step` block pairs
    per row and round, bounded by `_gaps`.  The `** alpha` denominators are
    built only for the sub-block pairs a round reads, once per round for
    all the rows that read them.

    pos is nondecreasing up to rounding: compactify can put a huge node one
    ulp below its left neighbour, so the bounds take each block's and each
    sub-block's extreme positions rather than its first and last."""
    # a row's adjacent maximum joins its start, so a block with itself needs
    # only the bound of its other pairs (`_gaps`)
    best = np.maximum(best, _adjacent(pos, alpha)(rows))
    nb = -(-pos.size // block)
    # repeating the last point in the padding only repeats existing pairs
    pad = nb * block - pos.size
    ppos = np.concatenate([pos, np.full(pad, pos[-1])])
    vb = np.concatenate([rows, np.repeat(rows[:, -1:], pad, axis=1)], axis=1)
    fpos = ppos.reshape(-1, fine)
    gaps = {size: _gaps(ppos.reshape(-1, size)) for size in (block, fine)}
    # inside one sub-block only its pairs r < c count
    ahead = ~np.tri(fine, dtype=bool)

    def lower(i, j, size):
        first, last, inner = gaps[size]
        return np.where(i == j, inner[i],
                        np.maximum(first[j] - last[i], 0.0)) ** alpha

    def tiles(i, j):
        dd = fpos[j][:, None, :] - fpos[i][:, :, None]
        keep = dd > 0
        keep[i == j] &= ahead
        # a power over every entry runs faster than a masked one, and over
        # |dd| it takes no slow path for a negative base
        return np.where(keep, np.abs(dd) ** alpha, np.inf)

    def den(i, j):
        if len(rows) == 1:
            return tiles(i, j)
        # the rows that read one sub-block pair in a round share its tile
        pairs, back = np.unique(i * len(fpos) + j, return_inverse=True)
        return tiles(*np.divmod(pairs, len(fpos)))[back]

    return _pruned_max(vb.reshape(len(rows), nb, block), fine, lower, den,
                       step, best)


def _gaps(bpos: np.ndarray):
    """(first, last, inner) of blocks of positions (blocks, nodes): their
    smallest and largest position, and a lower bound on the distance of the
    pairs r < c - 1 of one block, the smallest sum of two adjacent steps, 0
    in a block whose positions fall somewhere.

    Pairs I < J of blocks lie at least first[J] - last[I] apart: a block
    and itself, and blocks that touch or overlap, have no gap.  An adjacent
    pair never raises the adjacent maximum, the start of the scan, so a
    block with itself only needs the bound of its other pairs."""
    cols = _columns(bpos)
    steps = cols[1:] - cols[:-1]
    inner = np.minimum.reduce(steps[1:] + steps[:-1], initial=np.inf)
    falls = np.minimum.reduce(steps, initial=0.0) < 0
    return (np.minimum.reduce(cols), np.maximum.reduce(cols),
            np.where(falls, 0.0, inner))


def _columns(blocks: np.ndarray) -> np.ndarray:
    """The blocks (..., nodes) as a contiguous array (nodes, ...): numpy
    reduces a short last axis one row at a time, many times slower than
    its first axis."""
    return np.moveaxis(blocks, -1, 0).copy()


def _pruned_max(vb, fine, lower, den, step, best) -> np.ndarray:
    """Running maxima of pair ratios, one per row of the value blocks vb
    (rows, blocks, nodes), each from the row's entry of `best`: the kernel
    that prunes and computes the pair ratios of `_pairs_max`, the one
    Hoelder seminorm scan.

    Every block pair I <= J is cut into its pairs (i, j), i <= j, of
    sub-blocks of `fine` nodes (fine divides nodes), numbered along the
    row; a sub-block pair's ratios are |fv[j, c] - fv[i, r]| over
    den(i, j)[k, r, c], fv the row's sub-blocks of values and k the pair's
    place in the arrays i and j given to den, which is inf where a node
    pair is not scanned.  lower(i, j, size) bounds from below the
    denominators of the pairs of blocks (size nodes) or of sub-blocks
    (size fine) that can raise the row's start best.

    A block pair's ratios are at most its value spread over its lower
    bound, and so are a sub-block pair's.  Each row's block pairs above
    its best go in descending order of that bound, the first into round 0,
    the next `step` into round 1, and so on.  A round drops the block pairs
    no longer above the row's best by the relative margin `_PRUNE_SLACK`,
    which covers a lower bound that rounding puts above a denominator,
    splits the others into sub-block pairs, and computes the ratios of
    those whose own bound clears the row's best by the same margin; a round
    with no block pair left ends the scan, as later rounds hold smaller
    bounds.  So each row's maximum is the one of scanning its every pair.
    A pair of blocks or sub-blocks of no spread has bound 0, or nan over a
    lower bound 0, and is never scanned: its ratios are all 0.
    """
    rows, nb, size = vb.shape
    g = size // fine
    best = np.array(best, dtype=float)
    cols = _columns(vb)
    lo, hi = np.minimum.reduce(cols), np.maximum.reduce(cols)
    fv = vb.reshape(rows, nb * g, fine)
    cols = _columns(fv)
    flo, fhi = np.minimum.reduce(cols), np.maximum.reduce(cols)
    bi, bj = np.triu_indices(nb)
    # a block pair's sub-block pairs (a, c), a <= c in a block with itself
    a, c = np.divmod(np.arange(g * g), g)
    upper = a <= c
    shrink = 1 - _PRUNE_SLACK
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.maximum(hi[:, bj] - lo[:, bi],
                           hi[:, bi] - lo[:, bj]) / lower(bi, bj, size)
        row, pair = np.nonzero(bound > best[:, None] * shrink)
        top = bound[row, pair]
        # per row (nonzero keeps rows ascending) largest bound first: a
        # row's first block pair goes into round 0, its next `step` into
        # round 1, and so on
        order = np.argsort(-top)
        # a counting sort of the rows, stable, keeps each row's order
        order = order[np.argsort(row[order].astype(np.min_scalar_type(rows)),
                                 kind="stable")]
        row, pair, top = row[order], pair[order], top[order]
        rank = np.arange(row.size) - row.searchsorted(row)
        rnd = (rank + step - 1) // step
        for t in range(rnd.max(initial=-1) + 1):
            now = (rnd == t) & (top > best[row] * shrink)
            # a round of no live block pair leaves none in later rounds
            if not np.count_nonzero(now):
                break
            r, k = row[now], pair[now]
            u, v = ((bi[k] < bj[k])[:, None] | upper).nonzero()
            r, k = r[u], k[u]
            i, j = bi[k] * g + a[v], bj[k] * g + c[v]
            clear = (np.maximum(fhi[r, j] - flo[r, i], fhi[r, i] - flo[r, j])
                     / lower(i, j, fine)) > best[r] * shrink
            r, i, j = r[clear], i[clear], j[clear]
            dv = np.abs(fv[r, j][:, None, :] - fv[r, i][:, :, None])
            np.maximum.at(best, r, (dv / den(i, j)).max(axis=(1, 2)))
    return best


# ---------------------------------------------------------------------------
# spectral gap probe


@dataclass(frozen=True)
class GapProbeReport:
    alpha: float
    norms: np.ndarray          # seminorm estimates of the iterates, per step
    sup_norms: np.ndarray
    slope: float               # fitted slope of log norms over the last half
    slope_stderr: float
    verdict: str               # "bounded" | "growing" | "inconclusive"


def _ramp(nodes: np.ndarray, a: float, b: float) -> np.ndarray:
    u = np.clip((nodes - a) / (b - a), 0.0, 1.0)
    return 0.5 * (1 - np.cos(np.pi * u))


def _ramp_iterates(system, p, nodes, a, b):
    """Exact values at the nodes of the operator iterates of `_ramp`, one
    step of the coding walk each, without end; each step overwrites the
    array it yields.  A decided node (mass 0) keeps acc + 0 * ramp = acc
    as its value, which the walk writes into the state's acc array when it
    decides the node, so that array holds the values and only the
    undecided nodes that `_orbit_steps` yields are ramped, with the bits
    of stepping them all."""
    state = _orbit_start(system, nodes)
    vals = state[1]
    # sys.maxsize steps: without end
    for idx, y, acc, mass in _orbit_steps(system, p, state, 0.0,
                                          sys.maxsize):
        vals[idx] = acc + mass * _ramp(y, a, b)
        yield vals


def gap_probe(system: IFSystem, p: ProbVector, alpha: float, n_max: int = 60,
              grid_size: int = 8193, margin: float = 0.25,
              probe_words: int = 64, seed: int = 0) -> GapProbeReport:
    """Track the alpha-seminorm of operator iterates of a smooth ramp.

    The iterates of the ramp are evaluated exactly through the coding walk
    (no interpolation), so the seminorm estimate combines three probe
    families: adjacent and subsampled node pairs of the grid, and endpoint
    pairs of depth-n cylinders whose scale shrinks with the iterate, picked
    per step as the heaviest mass-to-diameter words among constant and
    seeded random words.  On a fixed grid alone the estimate would stall at
    the grid scale and growth beyond it would be invisible.  Each iterate's
    best starts at its cylinder and adjacent maxima, its 257 subsample
    values, between 0 and 1 at the virtual points at minus and plus
    infinity, are kept as one row, and after the walk `_pairs_max`, the
    scan of `holder_seminorm`, takes the pairs of every row at once, the
    pair of the two virtual points included.

    The verdict comes from the `_ls_slope` fit of log(seminorm) against n
    over the last half of the run: bounded when |slope| < 1e-3, growing when
    slope > 5e-3 with a positive margin over its standard error.  alpha
    must lie in (0, 1], n_max be at least 3 (a fit needs two points),
    grid_size at least 2, probe_words at least 0, margin above -0.5 and
    seed in 0 .. 2**128 - 1, the Philox keys.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    _checked_least("n_max", n_max, 3)
    _checked_least("grid_size", grid_size, 2)
    _checked_least("probe_words", probe_words, 0)
    _checked_least("seed", seed, 0)
    if not seed < 2 ** 128:
        raise ValueError(f"seed must be below 2**128, got {seed}")
    if not system.is_affine:
        raise NotImplementedError("gap probe requires affine branches")
    rng = np.random.default_rng(np.random.Philox(key=seed))
    a, b = (float(t) for t in attractor_hull(system))
    nodes = uniform_grid(system, grid_size, margin)
    pos = compactify(nodes)
    adjacent = _adjacent(pos, alpha)
    sub = np.linspace(0, nodes.size - 1, 257).astype(int)
    # the virtual points at minus and plus infinity, values 0 and 1, around
    # the subsample
    rows = np.zeros((n_max, sub.size + 2))
    rows[:, -1] = 1.0
    s_count = system.branch_count
    words = np.repeat(np.arange(1, s_count + 1)[:, None], n_max, axis=1)
    if probe_words > 0:
        words = np.vstack([words, rng.integers(1, s_count + 1,
                                               size=(probe_words, n_max))])
    cylinder_best = _cylinder_probe_max(system, p, alpha, words)

    # each iterate's best over its cylinder and adjacent pairs, and its
    # subsample values as one row of the scan after the walk
    best = cylinder_best.copy()
    sups = np.zeros(n_max)
    for n, vals in zip(range(n_max), _ramp_iterates(system, p, nodes, a, b)):
        sups[n] = float(np.max(np.abs(vals)))
        best[n] = max(best[n], adjacent(vals))
        rows[n, 1:-1] = vals[sub]
    norms = _pairs_max(np.r_[-1.0, pos[sub], 1.0], rows, alpha, _SUB_BLOCK,
                       _SUB_BLOCK, _SUB_STEP, best)

    half = n_max // 2
    ns = np.arange(half + 1, n_max + 1)
    logv = np.log(norms[half:])
    slope, stderr, _ = _ls_slope(ns, logv)
    if abs(slope) < 1e-3:
        verdict = "bounded"
    elif slope > 5e-3 and slope - 2 * stderr > 0:
        verdict = "growing"
    else:
        verdict = "inconclusive"
    return GapProbeReport(alpha=alpha, norms=norms, sup_norms=sups,
                          slope=float(slope), slope_stderr=float(stderr),
                          verdict=verdict)


def _cylinder_probe_max(system, p, alpha, words):
    """Largest mass/diameter^alpha ratio over the prefixes of probe words,
    one entry per prefix length n.

    The operator iterate changes across the cylinder of a depth-n word by
    exactly the word's mass, so each prefix gives a certified pair ratio.
    Masses and diameters come in logs from `_birkhoff`, which keeps deep
    cylinders alive long after their endpoints collide in float
    arithmetic; the compactification factors from `_cylinder_maps`.
    """
    s_phi, log_mass = _birkhoff(system, p, words)
    lo_o, hi_o = (float(v) for v in system.open_set)
    c, d = _cylinder_maps(system, words)
    factor = compactified_gap_factor(c * lo_o + d, c * hi_o + d)
    log_diam = math.log(hi_o - lo_o) + s_phi
    log_ratio = log_mass - alpha * (log_diam + np.log(factor))
    return np.exp(log_ratio.max(axis=0))


def _ls_slope(xs, ys):
    """Least-squares line of ys on xs: (slope, its standard error, R^2), with
    R^2 = 1 - ss_res / ss_tot, 1.0 when ss_tot is 0.  Rows of ys over one xs
    give lists of the three, each row fitted along the last axis by the
    pairwise sums of its own 1-D fit, so with that fit's bits."""
    xs, ys = (np.asarray(v, dtype=float) for v in (xs, ys))
    xm, ym = xs.mean(), ys.mean(axis=-1, keepdims=True)
    sxx = float(np.sum((xs - xm) ** 2))
    slope = np.sum((xs - xm) * (ys - ym), axis=-1) / sxx
    resid = ys - (ym + slope[..., None] * (xs - xm))
    ss_res = np.sum(resid ** 2, axis=-1)
    var = ss_res / max(xs.size - 2, 1)
    stderr = np.sqrt(var / sxx) if sxx > 0 else np.full_like(var, math.inf)
    ss_tot = np.sum((ys - ym) ** 2, axis=-1)
    r2 = 1.0 - np.divide(ss_res, ss_tot, out=np.zeros_like(ss_tot),
                         where=ss_tot > 0)
    return slope.tolist(), stderr.tolist(), r2.tolist()


def seminorm_refinement_sweep(make_grid, alpha: float, sizes) -> list:
    """Seminorm of the same function sampled at a ladder of grid sizes.

    make_grid maps a node count to a GridFunction.  A bounded seminorm shows
    up as a stabilising sweep; unbounded growth keeps climbing with each
    refinement.
    """
    return [holder_seminorm(make_grid(size), alpha) for size in sizes]
