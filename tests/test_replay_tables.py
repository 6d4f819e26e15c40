"""The L-symbol table of every affine system with increasing branches
(`ifs._cylinder_table`): its cuts are the least floats at which the float
orbit's one-symbol path changes, so every float of a region makes the
region's L decisions and its maps give the L-th float orbit point, bit for
bit; the array walk that reads it stays within `eval_cdf`'s bound plus
`ROUNDING`, and at tol 0 keeps `eval_cdf`'s bits.  A system with a
decreasing branch gets no table.  The walk's step counts, and the points
its region lookups send to the binary search, are pinned."""

import math

import numpy as np
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from holderlab import (
    Branch,
    IFSystem,
    ProbVector,
    affine_system,
    attractor_hull,
    cdf_values,
    eval_cdf,
)
from holderlab.ifs import _INDEXED_POINTS, _bucket
from holderlab.transition import _orbit_start, _orbit_steps

# What an L-symbol value may lie beyond `eval_cdf`'s bound: a block adds
# its folded masses in another order than L one-symbol steps, which moves
# the sums by a few ulps of 1 (at most 3.3e-16 over 117868 points of 150
# drawn systems, 2.2e-16 on gaps3)
ROUNDING = 1e-15


@st.composite
def increasing_systems(draw):
    """An affine system of 2 or 3 increasing branches of float slopes in
    [2, 5] on a hull [a, a + 1]: windows that touch (they tile the hull) or
    that leave gaps, each branch mapping its window onto the hull."""
    d = draw(st.sampled_from([2, 3]))
    a = draw(st.floats(-2.0, 2.0))
    if draw(st.booleans()):         # touching windows
        widths = [0.5]
        if d == 3:
            widths = [draw(st.floats(0.2, 0.4)), draw(st.floats(0.2, 0.4))]
        widths.append(1.0 - sum(widths))
        slopes, gaps = [1.0 / w for w in widths], [0.0] * (d - 1)
    else:
        slopes = [draw(st.floats(2.0, 5.0)) for _ in range(d)]
        widths = [1.0 / s for s in slopes]
        slack = 1.0 - sum(widths)
        shares = [draw(st.floats(0.1, 1.0)) for _ in range(d - 1)]
        gaps = [slack * f / sum(shares) for f in shares]
    edges = [a]
    for w, g in zip(widths, gaps + [0.0]):
        edges.append(edges[-1] + w + g)
    intercepts = [a - s * u for s, u in zip(slopes, edges)]
    return affine_system(tuple(slopes), tuple(intercepts), (a, a + 1.0))


def _valid(system):
    """Whether the drawn system has slopes in [2, 5] and windows that fit
    in the hull: two touching widths can leave a third above 0.5, and three
    gapped ones can overfill the hull."""
    slopes = [br.slope for br in system.branches]
    return all(2.0 <= s <= 5.0 for s in slopes) and (
        sum(1.0 / s for s in slopes) <= 1.0 + 1e-12)


def _one_symbol_paths(system, ys, length):
    """The decisions (park, window, inside) of L one-symbol steps of each
    float of ys, each L x points, and its L-th orbit point."""
    step, y, rows = system._step, ys.copy(), []
    for _ in range(length):
        r = np.searchsorted(step.keys, y, side="right")
        rows.append([step.park[0][r], step.window[0][r], step.inside[0][r]])
        y = step.slope[r] * y + step.intercept[r]
    return [np.array(o) for o in zip(*rows)], y


def _test_points(system, cyl, rng):
    """Every cut, the floats beside it, each region's last float, random
    floats around the hull and points outside it."""
    a, b = (float(t) for t in attractor_hull(system))
    keys = cyl.keys
    return np.concatenate([
        keys, np.nextafter(keys, math.inf), np.nextafter(keys, -math.inf),
        rng.uniform(a - 0.1, b + 0.1, 2000), [a - 1.0, b + 1.0, -0.0]])


@seed(46)
@settings(max_examples=60, deadline=None)
@given(system=increasing_systems(), key=st.integers(0, 2 ** 32 - 1))
def test_every_float_of_a_region_takes_its_path(system, key):
    assume(_valid(system))
    cyl = system._cylinders
    assert cyl is not None
    length = len(cyl.park)
    ys = _test_points(system, cyl, np.random.default_rng(key))
    r = np.searchsorted(cyl.keys, ys, side="right")
    assert cyl.region(ys).tolist() == r.tolist()
    (park, window, inside), images = _one_symbol_paths(system, ys, length)
    assert np.array_equal(park, cyl.park[:, r])
    assert np.array_equal(window, cyl.window[:, r])
    assert np.array_equal(inside, cyl.inside[:, r])
    # the block step's maps give the L-th float orbit point; a composed
    # map may turn -0.0 into 0.0, which compares equal
    y = ys.copy()
    for s, c in cyl.maps:
        y = s[r] * y + c[r]
    if len(cyl.maps) > 1:
        assert y.tobytes() == images.tobytes()
    else:
        assert y.tolist() == images.tolist()


@seed(4646)
@settings(max_examples=30, deadline=None)
@given(system=increasing_systems(), free=st.lists(
    st.integers(1, 20), min_size=2, max_size=2),
    tol=st.sampled_from([1e-12, 1e-14, 0.0]))
def test_block_walk_within_eval_cdf_bound(system, free, tol):
    # at tol > 0 each value lies within eval_cdf's bound plus ROUNDING of
    # eval_cdf's value; at tol 0 (60 symbols, every mass above 1e-300) the
    # walk takes one symbol per lookup and keeps eval_cdf's bits
    assume(_valid(system))
    d = system.branch_count
    p = ProbVector.of(*(k / 64 for k in free[:d - 1]))
    a, b = (float(t) for t in attractor_hull(system))
    xs = np.concatenate([np.linspace(a - 0.1, b + 0.1, 301),
                         system._cylinders.keys[::7]])
    if tol:
        values = cdf_values(system, p, xs, tol=tol)
        for x, v in zip(xs.tolist(), values.tolist()):
            want, bound = eval_cdf(system, p, x, tol=tol)
            assert abs(v - want) <= bound + ROUNDING, (x, v, want, bound)
    else:
        values = cdf_values(system, p, xs, tol=0.0, max_depth=60)
        assert values.tolist() == [
            eval_cdf(system, p, x, tol=1e-300, max_depth=60)[0]
            for x in xs.tolist()]


def test_decreasing_branch_gets_no_table():
    # a decreasing branch, built past Branch.affine's check: its float step
    # reverses the order that the cuts rest on
    system = IFSystem(branches=(Branch(slope=-3.0, intercept=1.0),
                                Branch.affine(3.0, -2.0)),
                      open_set=(0.0, 1.0))
    assert system._cylinders is None


# cdf_values at tol 1e-12 on 65537 nodes of [-0.25, 1.25]: the steps of the
# walk until no point is undecided, L-symbol blocks on both systems (one
# symbol per step took 30 and 27)
WORK_PINS = {
    "cantor": (affine_system((3.0, 3.0), (0.0, -2.0), (0.0, 1.0)), (0.3,), 4),
    "gaps3": (affine_system((4.0, 3.0, 4.0), (0.0, -1.0, -3.0), (0.0, 1.0)),
              (0.2, 0.3), 6),
}


def test_block_walk_step_counts():
    for name, (system, free, want) in WORK_PINS.items():
        p = ProbVector.of(*free)
        state = _orbit_start(system, np.linspace(-0.25, 1.25, 65537))
        steps = 0
        for idx, *_ in _orbit_steps(system, p, state, 1e-12, 100_000):
            steps += 1
            if not idx.size:
                break
        assert steps == want, name


# The same walks, and dyadic's at weights (0.3, 0.7): the points that the
# steps look up, and those of them that take `_FloatTable.region`'s binary
# search, in a call on fewer than _INDEXED_POINTS points or in a bucket
# that holds a key.  Dyadic's nodes are multiples of 3 / 2^17, whose orbits
# land on its cuts, so 46% of its points search; 3.3% of cantor's and 2.1%
# of gaps3's do
SEARCH_PINS = {"cantor": (45481, 1485), "gaps3": (81008, 1684),
               "dyadic": (120107, 55256)}


def test_block_walk_binary_search_counts():
    walks = {name: (system, free) for name, (system, free, _)
             in WORK_PINS.items()}
    walks["dyadic"] = (affine_system((2.0, 2.0), (0.0, -1.0), (0.0, 1.0)),
                       (0.3,))
    for name, (system, free) in walks.items():
        lo, hi, scale, start = system._cylinders._index
        state = _orbit_start(system, np.linspace(-0.25, 1.25, 65537))
        y = state[0][state[2] > 1e-12]
        lookups = searched = 0
        for idx, after, *_ in _orbit_steps(system, ProbVector.of(*free),
                                           state, 1e-12, 100_000):
            lookups += y.size
            searched += y.size if y.size < _INDEXED_POINTS else \
                np.count_nonzero(start[_bucket(y, lo, hi, scale)] < 0)
            if not idx.size:
                break
            y = after
        assert (lookups, searched) == SEARCH_PINS[name], name
