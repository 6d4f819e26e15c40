"""The array coding walk behind `cdf_values`, `gap_probe` and the
conjugacy residual: values that do not depend on the batch or on how the
steps are split between calls, agreement with the scalar walk of
`eval_cdf` (its bits, or its bound where affine systems walk L symbols
at once), agreement with the stationary measure, and outputs pinned to
recorded bits."""

import functools
import hashlib
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from conftest import bent_system
from test_replay_tables import ROUNDING
from holderlab import (
    GridFunction,
    ProbVector,
    affine_system,
    attractor_hull,
    cdf_values,
    cylinder,
    derivative_grids,
    eval_cdf,
    gap_probe,
    iterate_transition,
)
from holderlab.conjugacy import conjugacy_residual
from holderlab.ifs import (
    _coding_for,
    _regions,
    _suffix_midpoints,
    _walk,
    _walk_blocks,
    compactify,
    hull_preimages,
)
from holderlab.transition import (
    _adjacent,
    _masses,
    _orbit_start,
    _orbit_tables,
    _pair_scan,
    _ramp,
    _ramp_iterates,
    uniform_grid,
)


SYSTEMS = {
    "dyadic": affine_system((2.0, 2.0), (0.0, -1.0), (0.0, 1.0)),
    "cantor": affine_system((3.0, 3.0), (0.0, -2.0), (0.0, 1.0)),
    "gaps3": affine_system((4.0, 3.0, 4.0), (0.0, -1.0, -3.0), (0.0, 1.0)),
    "bent": bent_system(),
}


def _special_points(system):
    """Hull endpoints, window edges, points just beside them and points
    outside the hull."""
    a, b = (float(t) for t in attractor_hull(system))
    edges = [a, b] + [float(t) for w in hull_preimages(system) for t in w]
    near = [math.nextafter(t, d) for t in edges for d in (-math.inf, math.inf)]
    return edges + near + [a - 0.5, a - 1e-9, b + 1e-9, b + 0.5]


@st.composite
def batches(draw):
    """Points from the special set, random points around the hull and an
    optional uniform grid, plus the grid indices to call one by one."""
    name = draw(st.sampled_from(sorted(SYSTEMS)))
    system = SYSTEMS[name]
    a, b = (float(t) for t in attractor_hull(system))
    special = _special_points(system)
    picks = draw(st.lists(st.sampled_from(special), max_size=12))
    spread = st.floats(a - 0.3, b + 0.3, allow_nan=False)
    grid = draw(st.none() | st.tuples(spread, spread, st.integers(2, 400)))
    return dict(
        name=name,
        free=tuple(draw(st.integers(1, 31)) / 64
                   for _ in range(system.branch_count - 1)),
        points=picks + draw(st.lists(spread, max_size=24)),
        grid=grid,
        probe=draw(st.lists(st.integers(0, 10 ** 6), max_size=16)),
    )


@settings(max_examples=80, deadline=None)
@given(case=batches(), tol=st.sampled_from([1e-12, 1e-14, 0.0]),
       depth=st.integers(1, 60))
# the batch kept the loop running, which used to add a retired point's
# leftover mass at y == b: 0.08379307823015232 here, 0.0837930782301465
# alone and from eval_cdf
@example(case=dict(name="dyadic", free=(19 / 64,), points=[],
                   grid=(-0.30478467492858174, 1.1579146855055482, 4097),
                   probe=[1552]),
         tol=1e-14, depth=60)
def test_cdf_values_do_not_depend_on_the_batch(case, tol, depth):
    system = SYSTEMS[case["name"]]
    p = ProbVector.of(*case["free"])
    xs = list(case["points"])
    if case["grid"] is not None:
        xs += np.linspace(*case["grid"]).tolist()
    xs = np.array(xs, dtype=float)
    # tol 0 walks to a fixed depth; eval_cdf needs a positive tol, and one
    # below every mass of 60 steps stops it at the same depth
    kwargs = {"tol": tol} if tol else {"tol": 0.0, "max_depth": depth}
    scalar_tol, scalar_depth = (tol, 100_000) if tol else (1e-300, depth)
    values = cdf_values(system, p, xs, **kwargs)
    n_points = len(case["points"])
    picked = set(range(n_points))
    if xs.size > n_points:
        picked |= {n_points + i % (xs.size - n_points) for i in case["probe"]}
    for i in sorted(picked):
        alone = cdf_values(system, p, xs[i:i + 1], **kwargs)[0]
        assert alone.tobytes() == values[i].tobytes(), (i, xs[i])
    for x, v in zip(xs.tolist(), values.tolist()):
        want, bound = eval_cdf(system, p, x, tol=scalar_tol,
                               max_depth=scalar_depth)
        assert abs(v - want) <= bound + tol, (x, v, want, bound)


@settings(max_examples=60, deadline=None)
@given(case=batches(), steps=st.integers(1, 40))
def test_one_step_calls_match_one_walk(case, steps):
    # gap_probe steps the walk one symbol per call; at tol 0 that must give
    # the bits of one call of all the steps, after every step count
    system = SYSTEMS[case["name"]]
    p = ProbVector.of(*case["free"])
    xs = list(case["points"])
    if case["grid"] is not None:
        xs += np.linspace(*case["grid"]).tolist()
    xs = np.array(xs + _special_points(system), dtype=float)
    stepped = _orbit_start(system, xs)
    for n in range(1, steps + 1):
        _orbit_tables(system, p, stepped, tol=0.0, max_depth=1)
        whole = _orbit_start(system, xs)
        _orbit_tables(system, p, whole, tol=0.0, max_depth=n)
        for got, want in zip(stepped, whole):
            assert got.tobytes() == want.tobytes(), n


# Systems whose every float step is exact, as (slopes, intercepts) on (0, 1):
# at tol > 0 their walk takes L composed symbols per lookup, L the largest
# length with d^L <= 256.  The middle third and gaps3 replay L float steps
# per lookup, and bent keeps one symbol.
EXACT_STEP = {
    "dyadic": ((2, 2), (0, -1)),
    "four": ((4, 4, 4, 4), (0, -1, -2, -3)),
    "gapped": ((4, 4), (0, -3)),
}


def _exact_step_system(name, num=float):
    slopes, intercepts = EXACT_STEP[name]
    return affine_system(tuple(map(num, slopes)), tuple(map(num, intercepts)),
                         (num(0), num(1)))


@functools.cache
def _level_breakpoints(name):
    """The ends of every cylinder of length L, from the exact system."""
    exact = _exact_step_system(name, Fraction)
    d = exact.branch_count
    length = max(n for n in range(1, 9) if d ** n <= 256)
    words = itertools.product(range(1, d + 1), repeat=length)
    return sorted({float(t) for w in words for t in cylinder(exact, w)})


@st.composite
def exact_step_cases(draw):
    """A system of exact steps, weights in 64ths and a uniform grid."""
    name = draw(st.sampled_from(sorted(EXACT_STEP)))
    d = len(EXACT_STEP[name][0])
    cuts = sorted(draw(st.lists(st.integers(1, 63), min_size=d - 1,
                                max_size=d - 1, unique=True)))
    spread = st.floats(-0.3, 1.3, allow_nan=False)
    return dict(name=name,
                free=tuple(hi - lo for lo, hi in zip([0] + cuts, cuts)),
                grid=draw(st.tuples(spread, spread, st.integers(2, 300))))


# seed and explicit examples fixed before the first run
@seed(20261019)
@settings(max_examples=8, deadline=None)
@given(case=exact_step_cases(), tol=st.sampled_from([1e-12, 1e-14]))
@example(case=dict(name="dyadic", free=(19,), grid=(-0.3, 1.3, 257)),
         tol=1e-14)
@example(case=dict(name="four", free=(8, 16, 24), grid=(-0.25, 1.25, 101)),
         tol=1e-12)
@example(case=dict(name="gapped", free=(48,), grid=(0.0, 1.0, 300)),
         tol=1e-14)
def test_exact_step_walk_within_eval_cdf_bound(case, tol):
    # every level-L breakpoint and both float neighbours, the hull ends,
    # points outside the hull and a uniform grid: each value lies within
    # eval_cdf's bound of eval_cdf at the same float, within tol of the
    # exact cdf walk at Fraction(x), and is the value of its point alone
    system = _exact_step_system(case["name"])
    exact = _exact_step_system(case["name"], Fraction)
    p = ProbVector.of(*(k / 64 for k in case["free"]))
    q = ProbVector.of(*(Fraction(k, 64) for k in case["free"]))
    assert system._cylinders is not None
    ends = _level_breakpoints(case["name"])
    xs = np.array(
        ends + [math.nextafter(t, d) for t in ends
                for d in (-math.inf, math.inf)]
        + [-0.5, -1e-9, 1 + 1e-9, 1.5] + np.linspace(*case["grid"]).tolist())
    values = cdf_values(system, p, xs, tol=tol)
    for i, (x, v) in enumerate(zip(xs.tolist(), values.tolist())):
        alone = cdf_values(system, p, xs[i:i + 1], tol=tol)[0]
        assert alone.tobytes() == values[i].tobytes(), x
        want, bound = eval_cdf(system, p, x, tol=tol)
        assert abs(v - want) <= bound + 1e-15, (x, v, want, bound)
        value, _ = eval_cdf(exact, q, Fraction(x), tol=tol)
        assert abs(Fraction(v) - value) <= tol, (x, v, float(value))


# weights in 64ths compose without rounding in any order; 0.3 and 0.1
# round, so only the one-symbol steps' own order gives their bits
@pytest.mark.parametrize("name, free", [
    ("dyadic", (19 / 64,)), ("dyadic", (0.5,)), ("dyadic", (0.3,)),
    ("four", (5 / 64, 16 / 64, 24 / 64)), ("four", (0.1, 0.3, 0.2)),
    ("gapped", (48 / 64,))])
def test_exact_step_table_is_l_one_symbol_steps(name, free):
    # each level-L region's masses are the bits of L one-symbol steps from
    # mass 1 at its first float, and its map sends the first, the second
    # and the last float of every region to its L-th one-symbol orbit point
    # (as a float: the region of a breakpoint 0.0 holds -0.0 too, which the
    # walk parks as it is and the map sends to 0.0)
    system, p = _exact_step_system(name), ProbVector.of(*free)
    cyl, acc_w, mass_w = _masses(system, p, system._cylinders)
    length = max(n for n in range(1, 9) if system.branch_count ** n <= 256)
    firsts = np.concatenate([[np.nextafter(cyl.keys[0], -math.inf)],
                             cyl.keys])
    state = (firsts.copy(), np.zeros(firsts.size), np.ones(firsts.size))
    _orbit_tables(system, p, state, tol=0.0, max_depth=length)
    assert acc_w.tobytes() == state[1].tobytes()
    assert mass_w.tobytes() == state[2].tobytes()
    ys = np.concatenate([firsts, np.nextafter(firsts, math.inf),
                         np.nextafter(firsts[:1], -math.inf),
                         np.nextafter(cyl.keys, -math.inf)])
    r = np.searchsorted(cyl.keys, ys, side="right")
    state = (ys.copy(), np.zeros(ys.size), np.ones(ys.size))
    _orbit_tables(system, p, state, tol=0.0, max_depth=length)
    assert (cyl.slope[r] * ys + cyl.intercept[r]).tolist() \
        == state[0].tolist()


# 2x and 2x - c on (0, c): every float step is exact (Sterbenz), but the
# composed intercepts, such as -3c of two symbols, are not floats
WIDE_C = 1 + 2 ** -52
WIDE = affine_system((2.0, 2.0), (0.0, -WIDE_C), (0.0, WIDE_C))
# 4x - 3 and 4x - 12 on (0.5, 5), hull [1, 4]: slopes 2^2, but on window
# [1, 1.75] of the first branch 4y reaches 7, more than twice -c = 3, so
# Sterbenz's lemma does not make its step exact and there is no table
STERBENZ = affine_system((4.0, 4.0), (-3.0, -12.0), (0.5, 5.0))


@pytest.mark.parametrize("tol", [1e-12, 1e-14, 0.0])
@pytest.mark.parametrize("name, free", [("bent", (0.35,)), ("cantor", (0.3,)),
                                        ("gaps3", (0.2, 0.5)),
                                        ("wide", (0.3,)),
                                        ("sterbenz", (0.3,))])
def test_systems_without_exact_steps_keep_eval_cdf_bits(name, free, tol):
    # every system keeps eval_cdf's bits at tol 0 (60 symbols, every mass
    # above 1e-300), and the bent system, which has no L-symbol table, at
    # every tol; the others replay L float steps per lookup at tol > 0, so
    # they keep eval_cdf's bound only: within it plus ROUNDING of
    # eval_cdf's value
    system = {**SYSTEMS, "wide": WIDE, "sterbenz": STERBENZ}[name]
    p = ProbVector.of(*free)
    assert (system._cylinders is None) == (name == "bent")
    assert (_coding_for(system, 0.3)[0] == system._coding.table) \
        == (name == "bent")
    a, b = (float(t) for t in attractor_hull(system))
    xs = np.concatenate([
        np.linspace(a - 0.25 * (b - a), b + 0.25 * (b - a), 2001),
        np.random.default_rng(3).uniform(a - 0.1, b + 0.1, 500)])
    kwargs = {"tol": tol} if tol else {"tol": 0.0, "max_depth": 60}
    scalar = {"tol": tol} if tol else {"tol": 1e-300, "max_depth": 60}
    values = cdf_values(system, p, xs, **kwargs).tolist()
    wants = [eval_cdf(system, p, x, **scalar) for x in xs.tolist()]
    if name == "bent" or not tol:
        assert values == [want for want, _ in wants]
    for x, v, (want, bound) in zip(xs.tolist(), values, wants):
        assert abs(v - want) <= bound + ROUNDING, (x, v, want, bound)


# Exact-step systems as (slopes, intercepts, open set), each built in floats
# or in Fractions, whose L-symbol table must match `_reference_cylinders`
TABLE_SYSTEMS = {
    "dyadic": ((2, 2), (0, -1), (0, 1)),
    "four": ((4, 4, 4, 4), (0, -1, -2, -3), (0, 1)),
    "gapped": ((4, 4), (0, -3), (0, 1)),
    "eights": ((8, 8, 8), (0, -3, -7), (0, 1)),
    "mixed": ((2, 4), (0, -3), (0, 1)),
    "sixteens": ((16, 16), (0, -15), (0, 1)),
    "half": ((2, 2), (0, Fraction(-1, 2)), (0, Fraction(1, 2))),
}


def _reference_cylinders(system):
    """The L-symbol table as two floats per region give it: its keys from
    the float ends of every exact cylinder of L symbols, the first and a
    second float of each region walked L one-symbol steps, the slope the
    quotient of the images' difference by the floats' (0 on a region of
    one float), the intercept the first image minus slope times the first
    float, and the decisions along the first float's path."""
    length = max(n for n in range(1, 9) if system.branch_count ** n <= 256)
    exact = affine_system(*(tuple(map(Fraction, t)) for t in (
        [br.slope for br in system.branches],
        [br.intercept for br in system.branches], system.open_set)))
    ends = {float(t) for w in itertools.product(exact.symbols(), repeat=length)
            for t in cylinder(exact, w)}
    keys, firsts = _regions(np.array(sorted(ends)))
    # the float before the first for region 0, the next float for an even
    # region when the region holds it, else the first again
    seconds = np.nextafter(firsts, math.inf)
    seconds[0] = np.nextafter(firsts[0], -math.inf)
    seconds[1::2] = firsts[1::2]
    upper = np.append(keys[2::2], math.inf)
    seconds[2::2] = np.where(seconds[2::2] < upper, seconds[2::2],
                             firsts[2::2])
    step, y, path = system._step, np.concatenate([firsts, seconds]), []
    for _ in range(length):
        r = np.searchsorted(step.keys, y, side="right")
        path.append(r[:firsts.size])
        y = step.slope[r] * y + step.intercept[r]
    images, dr = y.reshape(2, -1), seconds - firsts
    slope = np.divide(images[1] - images[0], dr, out=np.zeros(dr.size),
                      where=dr != 0)
    intercept = images[0] + -slope * firsts
    park, window, inside = (o[0][np.array(path)]
                            for o in (step.park, step.window, step.inside))
    walk = None
    if system._coding.table[0] == step.keys[::2].tolist():
        walk = _walk_blocks(system, keys, slope, intercept, park, window,
                            inside)
    return dict(keys=keys, park=park, window=window, inside=inside,
                slope=slope, intercept=intercept, walk=walk)


@pytest.mark.parametrize("name, num", [
    ("dyadic", float), ("dyadic", Fraction), ("four", float),
    ("gapped", float), ("eights", float), ("mixed", float),
    ("sixteens", float), ("half", Fraction)])
def test_cylinder_table_matches_the_two_float_reference(name, num):
    slopes, intercepts, open_set = TABLE_SYSTEMS[name]
    system = affine_system(*(tuple(map(num, t))
                             for t in (slopes, intercepts, open_set)))
    cyl = system._cylinders
    assert cyl is not None
    for field, want in _reference_cylinders(system).items():
        got = system._float_walk if field == "walk" else getattr(cyl, field)
        if field == "walk":     # repr tells -0.0 from 0.0
            assert repr(got) == repr(want)
        else:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), field
    # STERBENZ's steps are not exact: its table replays L maps per region
    replay = STERBENZ._cylinders
    assert replay.slope.shape == replay.intercept.shape \
        == (8, replay.keys.size + 1)


def test_orbit_right_of_every_window_is_a_gap():
    # x is the right edge of window 1, and fl(3x) lies one float above the
    # hull's right end b: the walk's next point is right of every window
    system = affine_system((3.0, 2.0), (0.0, -1.765207077218265),
                           (0.0, 1.990870174183882))
    x = 0.5884023590727551
    b = float(attractor_hull(system)[1])
    assert x == hull_preimages(system)[0][1] and 3 * x > b
    (_, first, _), (park, sym, gap) = itertools.chain.from_iterable(
        _walk(*_coding_for(system, x), 2))
    assert (first, park, sym, gap) == (1, 0, 3, True)
    step = system._step
    r = np.searchsorted(step.keys, 3 * x, side="right")
    assert (step.window[0][r], step.inside[0][r], step.park[0][r]) \
        == (2, False, 0)
    p = ProbVector.of(0.3)
    for tol in (1e-12, 1e-14):
        assert cdf_values(system, p, [x], tol=tol).tolist() \
            == [eval_cdf(system, p, x, tol=tol)[0]]


@st.composite
def rational_weight_cases(draw):
    """A float system without custom branches, free weights k_i / q with
    q <= 30, and a grid of points around its hull."""
    name = draw(st.sampled_from(["cantor", "dyadic", "gaps3"]))
    s = SYSTEMS[name].branch_count - 1
    q = draw(st.integers(s + 1, 30))
    ks = draw(st.lists(st.integers(1, q - s), min_size=s, max_size=s)
              .filter(lambda ks: sum(ks) < q))
    spread = st.floats(-0.2, 1.2, allow_nan=False)
    return dict(name=name, free=tuple(Fraction(k, q) for k in ks),
                grid=(draw(spread), draw(spread), draw(st.integers(2, 200))))


@settings(max_examples=40, deadline=None)
@given(case=rational_weight_cases(), depth=st.integers(1, 60))
# 1/3 rounded is 0.3333333333333333, and 1 - that is 0.6666666666666667,
# not the float nearest to 2/3: the array walk once took the nearest floats
# and the scalar walk the float twin, 1 ulp apart at 115 of these points
@example(case=dict(name="cantor", free=(Fraction(1, 3),),
                   grid=(0.001, 0.999, 2001)), depth=60)
def test_rational_weights_keep_eval_cdf_bits(case, depth):
    # both walks read exact weights as `as_floats()`; every mass of 60
    # steps is above 1e-300, so eval_cdf stops at the depth that tol 0 does
    system, p = SYSTEMS[case["name"]], ProbVector.of(*case["free"])
    xs = np.linspace(*case["grid"])
    values = cdf_values(system, p, xs, tol=0.0, max_depth=depth)
    assert values.tolist() == [eval_cdf(system, p, x, tol=1e-300,
                                        max_depth=depth)[0]
                               for x in xs.tolist()]
    if system._cylinders is None:
        assert cdf_values(system, p, xs, tol=1e-12).tolist() \
            == [eval_cdf(system, p, x, tol=1e-12)[0] for x in xs.tolist()]


def test_exact_step_tables_leave_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, some 15 ms of a fresh
    # process; the L-symbol tables of a dyadic walk make no such call
    code = ("import sys\n"
            "import numpy as np\n"
            "from holderlab import ProbVector, affine_system, cdf_values\n"
            "dyadic = affine_system((2.0, 2.0), (0.0, -1.0), (0.0, 1.0))\n"
            "cdf_values(dyadic, ProbVector.of(0.3), np.linspace(0, 1, 65))\n"
            "print('numpy.ma' in sys.modules)\n")
    src = Path(cdf_values.__code__.co_filename).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


# The cdf T against the stationary measure mu it is the cdf of, by an oracle
# that walks no point: the probability integral transform.  A word of
# symbol law p codes a mu-distributed point X, and T(X) is uniform on
# [0, 1].  The midpoint of the word's depth-48 cylinder lies in the cylinder
# of X, across which T rises by the cylinder's mass, so the KS distance of T
# at the midpoints to the uniform law is at most the DKW bound (Massart's
# constant) plus the largest sampled cylinder mass, except with probability
# PIT_DELTA.  Seeds and weights were fixed before the first run.
PIT_DELTA = 1e-6
PIT_SEED = 17
# free weights and word count; the bent system's midpoints are walked word
# by word, so it draws fewer words
PIT_CASES = {
    "dyadic": ((0.3,), 20000),
    "cantor": ((0.4,), 20000),
    "gaps3": ((0.2, 0.5), 20000),
    "bent": ((0.35,), 5000),
}


def _pit_distance(name, swapped=False):
    """KS distance of the cdf at the cylinder midpoints of drawn words to the
    uniform law, and its bound; `swapped` draws the words with the weights
    reversed, a planted fault."""
    free, n = PIT_CASES[name]
    system, p = SYSTEMS[name], ProbVector.of(*free)
    weights = np.array([float(w) for w in p.weights])
    law = weights[::-1] if swapped else weights
    words = np.random.default_rng(PIT_SEED).choice(
        law.size, size=(n, 48), p=law) + 1
    mids = _suffix_midpoints(system, words)[:, 0].astype(float)
    u = np.sort(cdf_values(system, p, mids))
    k = np.arange(1, n + 1)
    ks = max(float(np.max(k / n - u)), float(np.max(u - (k - 1) / n)))
    mass = math.exp(float(np.log(weights)[words - 1].sum(axis=1).max()))
    return ks, math.sqrt(math.log(2 / PIT_DELTA) / (2 * n)) + mass


@pytest.mark.parametrize("name", sorted(PIT_CASES))
def test_cdf_is_the_cdf_of_the_stationary_measure(name):
    ks, bound = _pit_distance(name)
    assert ks <= bound, (ks, bound)


@pytest.mark.parametrize("name", sorted(PIT_CASES))
def test_stationary_measure_oracle_sees_swapped_weights(name):
    ks, bound = _pit_distance(name, swapped=True)
    assert ks > bound, (ks, bound)


def _all_pairs_scan(pos, alpha, sub, vals):
    """gap_probe's grid seminorm before its subsample scan was pruned: every
    adjacent pair, every pair of the subsample, and the subsample against
    the virtual points at minus and plus infinity (values 0 and 1)."""
    dd = np.diff(pos)
    adjacent = np.flatnonzero(dd > 0)
    dv = np.abs(np.diff(vals))[adjacent]
    best = float(np.max(dv / dd[adjacent] ** alpha)) if adjacent.size else 0.0
    ps, vs = pos[sub], vals[sub]
    i, j = np.nonzero(ps[None, :] - ps[:, None] > 0)
    if i.size:
        best = max(best, float((np.abs(vs[j] - vs[i])
                                / (ps[j] - ps[i]) ** alpha).max()))
    return max(best, float((np.abs(vs) / (ps + 1.0) ** alpha).max()),
               float((np.abs(1.0 - vs) / (1.0 - ps) ** alpha).max()))


@st.composite
def plateau_values(draw, size):
    """size values built from segments: constant runs, 0 and 1 plateaus,
    steps, ties among a few levels and free values, repeated to fill."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    level = st.sampled_from([0.0, 1.0, 0.5, 0.25]) | st.floats(0.0, 1.0)
    segments = draw(st.lists(st.tuples(
        st.sampled_from(["const", "zero", "one", "step", "ties", "free"]),
        st.integers(1, 300), level, level), min_size=1, max_size=8))
    parts = []
    for kind, run, lo, hi in segments:
        if kind == "step":
            parts.append(np.r_[np.full(run // 2, lo), np.full(run - run // 2,
                                                              hi)])
        elif kind == "ties":
            parts.append(rng.choice([lo, hi, 0.5], size=run))
        elif kind == "free":
            parts.append(rng.uniform(0.0, 1.0, size=run))
        else:
            parts.append(np.full(run, {"const": lo, "zero": 0.0,
                                       "one": 1.0}[kind]))
    return np.resize(np.concatenate(parts), size)


@st.composite
def scan_cases(draw):
    """A probe system and its grid, of fewer nodes than the 257 of the
    subsample (repeated indices) or more, the number of steps to walk it,
    and for the scan: the compactified nodes, perhaps with equal and swapped
    neighbours as compactify gives huge nodes, and drawn node values."""
    system = SYSTEMS[draw(st.sampled_from(sorted(SYSTEMS)))]
    size = draw(st.sampled_from([2, 3, 100, 256, 257, 258, 1000])
                | st.integers(2, 600))
    nodes = uniform_grid(system, size, draw(st.floats(-0.4, 0.4)))
    pos = compactify(nodes)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        tie = rng.integers(1, size, size=draw(st.integers(0, 30)))
        pos[tie] = pos[tie - 1]
        swap = rng.integers(0, size, size=(2, draw(st.integers(0, 30))))
        swap[1] = np.minimum(swap[0] + rng.integers(1, 40, swap.shape[1]),
                             size - 1)
        pos[swap[0]], pos[swap[1]] = pos[swap[1]], pos[swap[0]]
    vals = draw(plateau_values(size))
    if size > 257 and draw(st.booleans()):
        # linear between the subsample nodes: the adjacent pairs no longer
        # set the maximum, the subsample pairs do
        sub = np.linspace(0, size - 1, 257).astype(int)
        vals = np.interp(np.arange(size), sub, vals[sub])
    return dict(
        system=system,
        p=ProbVector.of(*(draw(st.integers(1, 31)) / 64
                          for _ in range(system.branch_count - 1))),
        nodes=nodes,
        pos=pos,
        alpha=draw(st.sampled_from([1.0, 0.5]) | st.floats(0.05, 1.0)),
        steps=draw(st.integers(1, 30)),
        vals=vals,
        start=draw(st.sampled_from([0.0, 0.5, 0.9, 0.99, 1 - 1e-9, 1.0, 2.0])
                   | st.floats(0.0, 2.0)),
    )


def _falling_step_case():
    """Subsample values that fall from 0.6 to 0.4 where one block of the
    scan ends, linear between the subsample nodes: the maximum lies in a
    block pair whose values fall."""
    system = SYSTEMS["cantor"]
    nodes = uniform_grid(system, 1000, 0.0)
    sub = np.linspace(0, 999, 257).astype(int)
    vals = np.interp(np.arange(1000), sub,
                     np.where(np.arange(257) < 143, 0.6, 0.4))
    return dict(system=system, p=ProbVector.of(0.5), nodes=nodes,
                pos=compactify(nodes), alpha=0.5, steps=1, vals=vals,
                start=0.99)


@settings(max_examples=60, deadline=None)
@given(case=scan_cases())
@example(case=_falling_step_case())
def test_pruned_pair_scan_and_live_steps_match_full_ones(case):
    system, p, nodes, pos = (case[k] for k in ("system", "p", "nodes", "pos"))
    alpha = case["alpha"]
    sub = np.linspace(0, nodes.size - 1, 257).astype(int)
    # stepping only the undecided nodes gives the iterates of stepping all
    a, b = (float(t) for t in attractor_hull(system))
    state = _orbit_start(system, nodes)
    live = _ramp_iterates(system, p, nodes, a, b)
    iterates = []
    for n in range(case["steps"]):
        _orbit_tables(system, p, state, tol=0.0, max_depth=1)
        y, acc, mass = state
        want = acc + mass * _ramp(y, a, b)
        assert next(live).tobytes() == want.tobytes(), n
        iterates.append(want)
    # one batched scan gives each row the float of scanning every pair of
    # its values, from a start best below, at or above that maximum, and
    # the probe's seed, the adjacent maximum; one ulp below, only the block
    # pairs holding the maximum can raise it.  The first row starts above
    # every other row's maximum, so a best that leaks between rows shows.
    adjacent = _adjacent(pos, alpha)
    fulls = [_all_pairs_scan(pos, alpha, sub, vals)
             for vals in iterates + [case["vals"]]]
    cases = [(case["vals"], fulls[-1], 2 * max(fulls) + 1.0)]
    cases += [(vals, full, best)
              for vals, full in zip(iterates + [case["vals"]], fulls)
              for best in (0.0, case["start"] * full,
                           math.nextafter(full, 0.0))]
    got = _pair_scan(
        pos, alpha, sub, np.array([vals[sub] for vals, _, _ in cases]),
        np.array([max(best, adjacent(vals)) for vals, _, best in cases]))
    assert ([v.hex() for v in got]
            == [max(full, best).hex() for _, full, best in cases])


# gap_probe and conjugacy_residual outputs recorded, as float.hex(), before
# the array walk took its one-searchsorted window rule and the pair scan
# its once-per-probe denominators; the last five gap_probe cases before
# the probe stepped only its undecided nodes and pruned its subsample scan
GAP_CASES = [
    ("dyadic", (0.25,), 0.6, dict(n_max=12, grid_size=1025, probe_words=8,
                                  seed=3)),
    ("cantor", (0.3,), 0.9, dict(n_max=10, grid_size=513, probe_words=4,
                                 seed=1)),
    ("gaps3", (0.2, 0.5), 0.5, dict(n_max=8, grid_size=777, probe_words=0,
                                    seed=0)),
    # at 3001 nodes the dyadic nodes are not short dyadics, so they stay
    # undecided for about 50 steps; alpha_minus is 0.415 here
    ("dyadic", (0.25,), 0.3, dict(n_max=50, grid_size=3001, probe_words=64,
                                  seed=7)),
    ("dyadic", (0.25,), 0.6, dict(n_max=40, grid_size=3001, probe_words=64,
                                  seed=9)),
    # alpha_minus is 0.325 for the middle third, 0.631 for gaps3
    ("cantor", (0.3,), 0.6, dict(n_max=40, grid_size=4097, probe_words=64,
                                 seed=11)),
    ("gaps3", (0.2, 0.5), 0.45, dict(n_max=60, grid_size=8193,
                                     probe_words=64, seed=5)),
    # margin -0.3: no node lies outside the hull, so the sup stays below 1
    ("cantor", (0.4,), 0.2, dict(n_max=40, grid_size=6001, margin=-0.3,
                                 probe_words=64, seed=2)),
    # five dyadic nodes on the hull, all decided after 3 steps: the walk
    # must go on yielding to n_max; recorded before the probe stepped the
    # walk's own step loop
    ("dyadic", (0.25,), 0.6, dict(n_max=10, grid_size=5, margin=0.0,
                                  probe_words=8, seed=4)),
]
GAP_NORMS = [
    ["0x1.3abae88758fe3p+1", "0x1.846d25582cb07p+1", "0x1.cb20119922811p+1",
     "0x1.08867fbe790bap+2", "0x1.2c3f3b46cad59p+2", "0x1.5ac261e537c52p+2",
     "0x1.6cd46b7a6b972p+2", "0x1.9994eee30bd38p+2", "0x1.d880e57250e54p+2",
     "0x1.08e19d84770fcp+3", "0x1.2d286a293d7ddp+3", "0x1.5660a7be216d6p+3"],
    ["0x1.e3ff89cda18edp+2", "0x1.f7d8782bd3ab1p+3", "0x1.e7e679f243bf0p+4",
     "0x1.cce593664e94bp+5", "0x1.47d3b7e5356a1p+6", "0x1.34c970753494bp+7",
     "0x1.229ce365fb59cp+8", "0x1.116ef34b021a9p+9", "0x1.013ef87b499aap+10",
     "0x1.e404db44330a5p+10"],
    ["0x1.a58c8c91c2db4p+0", "0x1.9cfb31a872dedp+0", "0x1.9c3ce715a2413p+0",
     "0x1.9abde05fc9f0dp+0", "0x1.9abb5cef85cd1p+0", "0x1.9ac6ba4d0bfd1p+0",
     "0x1.9acd87f64908fp+0", "0x1.9ad72e6a9cc62p+0"],
    ["0x1.50a25a00abee1p+0", "0x1.5d536a97b3396p+0", "0x1.65841cc22b1aap+0",
     "0x1.65cdf80642d32p+0", "0x1.68240dee98d70p+0", "0x1.69191cca03226p+0",
     "0x1.691a931b37f28p+0", "0x1.6949311199e44p+0", "0x1.6951d7de31e9bp+0",
     "0x1.6966e7bd2fb52p+0", "0x1.697b4618f24a0p+0", "0x1.697b4650d6a2bp+0",
     "0x1.697b472ea59bfp+0", "0x1.697b4a8a39c86p+0", "0x1.697b565c65593p+0",
     "0x1.697b684c28e33p+0", "0x1.697b69a65d388p+0", "0x1.697b6cea20289p+0",
     "0x1.697b6cec8f857p+0", "0x1.697b6cf5a0f28p+0", "0x1.697b6d10bc763p+0",
     "0x1.697b6d10fa643p+0", "0x1.697b6d11b0298p+0", "0x1.697b6d13a2dd7p+0",
     "0x1.697b6d1793604p+0", "0x1.697b6d1861703p+0", "0x1.697b6d1906693p+0",
     "0x1.697b6d1953c9ep+0", "0x1.697b6d195b957p+0", "0x1.697b6d196e8fap+0",
     "0x1.697b6d1980e9ep+0", "0x1.697b6d1980ea1p+0", "0x1.697b6d1980eadp+0",
     "0x1.697b6d1980edep+0", "0x1.697b6d1980f88p+0", "0x1.697b6d198108ap+0",
     "0x1.697b6d198109ep+0", "0x1.697b6d19810cdp+0", "0x1.697b6d19810cdp+0",
     "0x1.697b6d19810cep+0", "0x1.697b6d19810d0p+0", "0x1.697b6d19810d0p+0",
     "0x1.697b6d19810d0p+0", "0x1.697b6d19810d0p+0", "0x1.697b6d19810d0p+0",
     "0x1.697b6d19810d0p+0", "0x1.697b6d19810d0p+0", "0x1.697b6d19810d0p+0",
     "0x1.697b6d19810d0p+0", "0x1.697b6d19810d0p+0"],
    ["0x1.3abaa2c66579ap+1", "0x1.8463c703fc944p+1", "0x1.cb38700490b22p+1",
     "0x1.086255abad14cp+2", "0x1.2b93a0304575cp+2", "0x1.597113051b37ap+2",
     "0x1.67dfd706afe0bp+2", "0x1.9994eee30bd38p+2", "0x1.d1e175c06c7f7p+2",
     "0x1.08e19d84770fcp+3", "0x1.2d286a293d7ddp+3", "0x1.5660a7be216d6p+3",
     "0x1.853989d0a170cp+3", "0x1.ba79526b82ab9p+3", "0x1.f700dded97a13p+3",
     "0x1.1de7bfd5cf63dp+4", "0x1.4503a695140e7p+4", "0x1.7178f8da1dc41p+4",
     "0x1.a403118079e6dp+4", "0x1.dd76e82f7c552p+4", "0x1.0f6349f73e3adp+5",
     "0x1.3482a3f419fbfp+5", "0x1.5eb5edb242d7bp+5", "0x1.8eaef818b5878p+5",
     "0x1.c537e6a08a36bp+5", "0x1.019b418c9f720p+6", "0x1.24d802f522fa6p+6",
     "0x1.4ce6b161b5223p+6", "0x1.7a7015ed70138p+6", "0x1.ae341028e6bfdp+6",
     "0x1.e90cbe947f017p+6", "0x1.15f90ad8c9565p+7", "0x1.3bfefa657c4d9p+7",
     "0x1.673864d3a48ebp+7", "0x1.985b6b58adbb0p+7", "0x1.d03718e8025d7p+7",
     "0x1.07db654c13c8fp+8", "0x1.2bf307ae80913p+8", "0x1.54fa87b4fdf6ep+8",
     "0x1.839ec6e53af9fp+8"],
    ["0x1.8c08ba73b312cp+1", "0x1.1f22ed2c81d23p+2", "0x1.8bba2847fcbabp+2",
     "0x1.edad893517f9bp+2", "0x1.4d32da03635acp+3", "0x1.c343eb2f0bc64p+3",
     "0x1.316a866cac832p+4", "0x1.9d55d403aaafap+4", "0x1.17ad4521f264ep+5",
     "0x1.7a785fd538ff1p+5", "0x1.0014399ad3dd1p+6", "0x1.5a8895081b7f7p+6",
     "0x1.d4f058491af6bp+6", "0x1.3d4a5deb904b7p+7", "0x1.ad5dc09de9dbep+7",
     "0x1.2283dc23a225bp+8", "0x1.89220a9ba9cb3p+8", "0x1.09ffc925015d0p+9",
     "0x1.67f515d3090fcp+9", "0x1.e71aab82f2fc9p+9", "0x1.4994d49788d18p+10",
     "0x1.bdffa0ed2ea5fp+10", "0x1.2dc4cbdc028e7p+11", "0x1.985c9a67b182fp+11",
     "0x1.144d9b1ec1b47p+12", "0x1.75e6a7e7d026fp+12", "0x1.f9f91c5fffc94p+12",
     "0x1.56592c486b819p+13", "0x1.cf46707c998f6p+13", "0x1.397554acdb7b9p+14",
     "0x1.a82e2ece33d36p+14", "0x1.1f019b6ad0bc6p+15", "0x1.8462802836815p+15",
     "0x1.06c95582741bep+16", "0x1.639c1efa16f91p+16", "0x1.e1389381847d6p+16",
     "0x1.4599c96715993p+17", "0x1.b89ca176b16c5p+17", "0x1.2a1fbf57a45c2p+18",
     "0x1.936df9cd0f60cp+18"],
    ["0x1.871628d508c9cp+0", "0x1.80948bb3aa0a4p+0", "0x1.7f8ad2e9e8f9ep+0",
     "0x1.7e5015368f542p+0", "0x1.7df6c010211f9p+0", "0x1.7e0a81fa991eap+0",
     "0x1.7e0e339ee4475p+0", "0x1.7e100c7109dbap+0", "0x1.7e10f8da1ca5dp+0",
     "0x1.7e116f0ea60aep+0", "0x1.7e11aa28eabd7p+0", "0x1.7e11c7b60d16bp+0",
     "0x1.7e11d67c9e436p+0", "0x1.7e11dddfe6d9ap+0", "0x1.7e11e1918b24dp+0",
     "0x1.7e11e36a5d4a6p+0", "0x1.7e11e456c65d3p+0", "0x1.7e11e4ccfae69p+0",
     "0x1.7e11e508152b4p+0", "0x1.7e11e525a24d9p+0", "0x1.7e11e53468dedp+0",
     "0x1.7e11e53bcc276p+0", "0x1.7e11e53f7dcbbp+0", "0x1.7e11e541569ddp+0",
     "0x1.7e11e5424306ep+0", "0x1.7e11e542b93b7p+0", "0x1.7e11e542f455bp+0",
     "0x1.7e11e54311e2dp+0", "0x1.7e11e54320a97p+0", "0x1.7e11e543280cbp+0",
     "0x1.7e11e5432bbe5p+0", "0x1.7e11e5432d972p+0", "0x1.7e11e5432e839p+0",
     "0x1.7e11e5432ef9cp+0", "0x1.7e11e5432f34ep+0", "0x1.7e11e5432f527p+0",
     "0x1.7e11e5432f612p+0", "0x1.7e11e5432f689p+0", "0x1.7e11e5432f6c4p+0",
     "0x1.7e11e5432f6e2p+0", "0x1.7e11e5432f6f0p+0", "0x1.7e11e5432f6f8p+0",
     "0x1.7e11e5432f6fbp+0", "0x1.7e11e5432f6fdp+0", "0x1.7e11e5432f6fep+0",
     "0x1.7e11e5432f6ffp+0", "0x1.7e11e5432f6ffp+0", "0x1.7e11e5432f6ffp+0",
     "0x1.7e11e5432f6ffp+0", "0x1.7e11e5432f6ffp+0", "0x1.7e11e5432f6ffp+0",
     "0x1.7e11e5432f6ffp+0", "0x1.7e11e5432f6ffp+0", "0x1.7e11e5432f6ffp+0",
     "0x1.7e11e5432f6ffp+0", "0x1.7e11e5432f6ffp+0", "0x1.7e11e5432f6ffp+0",
     "0x1.7e11e5432f6ffp+0", "0x1.7e11e5432f6ffp+0", "0x1.7e11e5432f6ffp+0"],
    ["0x1.e6e1128320d30p-1", "0x1.75230e786bc7cp-1", "0x1.8f8c73cd84608p-1",
     "0x1.8b0b55cf06dfbp-1", "0x1.855283feac3d0p-1", "0x1.868e349cdcd43p-1",
     "0x1.896253cb46f10p-1", "0x1.891fe863bc3b6p-1", "0x1.88cb88bef40a8p-1",
     "0x1.88ddb7c879815p-1", "0x1.89076d64bf838p-1", "0x1.890399ff58e9ap-1",
     "0x1.88febddba4364p-1", "0x1.88ffc9fcf53b9p-1", "0x1.89023104bb000p-1",
     "0x1.8901f89af28eep-1", "0x1.8901b0f15d45fp-1", "0x1.8901c0631abd3p-1",
     "0x1.8901e3d018960p-1", "0x1.8901e0903ff5fp-1", "0x1.8901dc6f8b3a1p-1",
     "0x1.8901dd5347d23p-1", "0x1.8901df5da76a3p-1", "0x1.8901df2dbdf2ep-1",
     "0x1.8901def0dfb44p-1", "0x1.8901defdff547p-1", "0x1.8901df1c15702p-1",
     "0x1.8901df1955c54p-1", "0x1.8901df15d202cp-1", "0x1.8901df169a9edp-1",
     "0x1.8901df1852d94p-1", "0x1.8901df1836bb8p-1", "0x1.8901df180056dp-1",
     "0x1.8901df182a97bp-1", "0x1.8901df181f07ep-1", "0x1.8901df1826a3dp-1",
     "0x1.8901df1826a3dp-1", "0x1.8901df1826a3dp-1", "0x1.8901df1826a3dp-1",
     "0x1.8901df1826a3dp-1"],
    ["0x1.194b83df25dc4p+1", "0x1.5ec26800b0c2dp+1", "0x1.9f976386b4aedp+1",
     "0x1.e1d36697d7e58p+1", "0x1.1482328db047ap+2", "0x1.3bd3702dd9d4dp+2",
     "0x1.67dfd706afe0bp+2", "0x1.9994eee30bd38p+2", "0x1.d1e175c06c7f7p+2",
     "0x1.08e19d84770fcp+3"],
]
GAP_SLOPES = [
    ("0x1.029a2bd1ac119p-3", "0x1.8995a81508661p-10", "growing"),
    ("0x1.43b1dda281fbdp-1", "0x1.7d7774cf79555p-15", "growing"),
    ("0x1.67fd7742c1800p-14", "0x1.787c1c9e24c00p-18", "bounded"),
     ("0x1.905837ed186b2p-39", "0x1.0cc394bde58cep-40", "bounded"),
     ("0x1.0690fe2fc7515p-3", "0x1.2c6e2f27e5abep-30", "growing"),
     ("0x1.35c0934be242cp-2", "0x1.fb5a8d7a4fb52p-43", "growing"),
     ("0x1.e7267fea215fcp-46", "0x1.2e86979776559p-47", "bounded"),
     ("0x1.38a6c54ce5700p-29", "0x1.03d8983fd4ab0p-30", "bounded"),
     ("0x1.08bc196364076p-3", "0x1.eec1e4b8866b8p-13", "growing"),
]
ONE = (1.0).hex()
GAP_SUPS = [
    [ONE] * 12,
    [ONE] * 10,
    [ONE] * 8,
    [ONE] * 50,
    [ONE] * 40,
    [ONE] * 40,
    [ONE] * 60,
    ["0x1.a8a2ac13d6699p-2", "0x1.cc40c1368f488p-2", "0x1.f97f928c2f9d1p-2",
     "0x1.efbf4e8e8dbc9p-2", "0x1.d9616f1536897p-2", "0x1.db6ea2ae5afc6p-2",
     "0x1.de09ce472731bp-2", "0x1.dd7a05581541dp-2", "0x1.dc3035e9770c7p-2",
     "0x1.dc4e7652f398fp-2", "0x1.dc74e42681384p-2", "0x1.dc6c9bf4b077ap-2",
     "0x1.dc599cb490700p-2", "0x1.dc5b5ac890f5dp-2", "0x1.dc5d9171381ecp-2",
     "0x1.dc5d1751ad492p-2", "0x1.dc5bff3221809p-2", "0x1.dc5c18e3d19d2p-2",
     "0x1.dc5c39878b52bp-2", "0x1.dc5c327ec27ebp-2", "0x1.dc5c225c2d2c5p-2",
     "0x1.dc5c23d70b002p-2", "0x1.dc5c25b856e04p-2", "0x1.dc5c255097ea9p-2",
     "0x1.dc5c2462ae18cp-2", "0x1.dc5c247876c91p-2", "0x1.dc5c249437a4bp-2",
     "0x1.dc5c248e24fefp-2", "0x1.dc5c24807b9c6p-2", "0x1.dc5c24818fa00p-2",
     "0x1.dc5c248340dd6p-2", "0x1.dc5c2482663fep-2", "0x1.dc5c248241396p-2",
     "0x1.dc5c248241396p-2", "0x1.dc5c248241396p-2", "0x1.dc5c248241396p-2",
     "0x1.dc5c248241396p-2", "0x1.dc5c248241396p-2", "0x1.dc5c248241396p-2",
     "0x1.dc5c248241396p-2"],
    [ONE] * 10,
]
RESIDUAL_CASES = [
    ("dyadic", (0.25,), 200, 5, "0x1.8000000000000p-52"),
    ("cantor", (0.4,), 150, 2, "0x1.c000000000000p-51"),
    ("gaps3", (0.2, 0.5), 120, 9, "0x1.4000000000000p-50"),
]


def test_gap_probe_pinned_bits():
    assert len(GAP_CASES) == len(GAP_NORMS) == len(GAP_SLOPES) \
        == len(GAP_SUPS)
    for (name, free, alpha, kwargs), norms, sups, (slope, stderr, verdict) \
            in zip(GAP_CASES, GAP_NORMS, GAP_SUPS, GAP_SLOPES):
        report = gap_probe(SYSTEMS[name], ProbVector.of(*free), alpha,
                           **kwargs)
        assert [float(v).hex() for v in report.norms] == norms, name
        assert [float(v).hex() for v in report.sup_norms] == sups, name
        assert float(report.slope).hex() == slope, name
        assert float(report.slope_stderr).hex() == stderr, name
        assert report.verdict == verdict


def test_conjugacy_residual_pinned_bits():
    for name, free, count, seed, want in RESIDUAL_CASES:
        got = conjugacy_residual(SYSTEMS[name], ProbVector.of(*free), count,
                                 seed=seed)
        assert float(got).hex() == want, name


def _digest_nodes(system, depth):
    """Every breakpoint of up to depth symbols (the hull ends and their
    preimages under up to depth branches), each with the two floats on
    either side, and a uniform grid over the hull and a margin."""
    a, b = (float(t) for t in attractor_hull(system))
    ends = level = {a, b}
    for _ in range(depth):
        level = {float(br.inverse(t)) for br in system.branches for t in level}
        ends = ends | level
    nodes = set(np.linspace(a - 0.25 * (b - a), b + 0.25 * (b - a),
                            1001).tolist())
    for t in ends:
        for way in (-math.inf, math.inf):
            nodes |= {t, math.nextafter(t, way),
                      math.nextafter(math.nextafter(t, way), way)}
    return np.array(sorted(nodes))


# SHA-256 of the bytes of `cdf_values` at tol 0 and 1e-12 on `_digest_nodes`
# and of `iterate_transition`'s residuals, recorded when the one-symbol
# step of the array walk had its own window, gap and parking tests; those
# of cantor and gaps3 at tol 1e-12 and of gaps3's residuals again when
# their walk took L replayed symbols per lookup, each changed value within
# eval_cdf's bound plus 2.2e-16
OUTPUT_DIGESTS = {
    "dyadic": (
        "4da5f104ed6ca49fca62a8fed21b6fced0daa372e3f508c64048647f7d8e955c",
        "c59162e54f2c90ab79425d892f40d8df74c6d822e09934327b2999bb7d6159c9",
        "8365461d944a91d0ee8300a9949b5db9e157e2ad676adfd7ae09b2b4e44fdc99"),
    "cantor": (
        "19c19497699ffedfc8321c953e0f48151bf7e0ad16edc485046491efd229810e",
        "18effe68d306c8e25b3656a6ca1be5362d6c3ad08e22d772db86718d597cfecc",
        "a3787bcb28bb4cff3753a3bdc7ee4c3d83dca711bd482d685b39acef83a808ae"),
    "gaps3": (
        "c395e2bb833d65dbb0b7febbc414d6a5178deea18563b13f9b2a6341cbed0590",
        "cbb54b5c72acb6bc5dd490e78e4b040eace4a3be57fe86df07c7d2404eae9e1e",
        "f8f156c3729e34ec3f4ba172e3cfe6e36ceffe7736b6e50e0acf03d9656e272a"),
    "bent": (
        "4059dc1c06769231c8e5a63d349417a2875d04d26070888520c2369ae959deb5",
        "9d14d0cbd2e9cb347caecbfbd8443c3e0a64a4a4e99f0572858ae3b1e5ebbea0",
        "371eaa76c5d39b6e7aa6fa0ba157956ab26cfb2af52e0764e86634adbfd19a29"),
}


@pytest.mark.parametrize("name, free", [("dyadic", (0.3,)),
                                        ("cantor", (0.3,)),
                                        ("gaps3", (0.2, 0.5)),
                                        ("bent", (0.35,))])
def test_array_walk_output_digests(name, free):
    system, p = SYSTEMS[name], ProbVector.of(*free)
    nodes = _digest_nodes(system, 5 if system.branch_count > 2 else 8)
    h0 = GridFunction(uniform_grid(system, 513),
                      _ramp(uniform_grid(system, 513), 0.0, 1.0), 0.0, 1.0)
    outputs = [cdf_values(system, p, nodes, tol=0.0),
               cdf_values(system, p, nodes, tol=1e-12),
               iterate_transition(system, p, h0, n_max=20).residuals]
    got = tuple(hashlib.sha256(out.tobytes()).hexdigest() for out in outputs)
    assert got == OUTPUT_DIGESTS[name]


# SHA-256 of `derivative_grids` on `_digest_nodes` at depth 4 (every grid
# of the box in key order: its key, terms, tail estimate and convergence,
# then the bytes of its values), recorded while the operator read its
# branch images through np.interp; cantor's and gaps3's again when their
# cdf grid took L replayed symbols per lookup (base values within
# eval_cdf's bound plus 2.2e-16, derivatives moved by at most 1e-14, terms
# and convergence unchanged)
DERIVATIVE_DIGESTS = {
    ("dyadic", (1,)):
        "44c751cb4cd2cf86d07701a82b778066d4d110d16801153ef7adcec39a79320a",
    ("dyadic", (2,)):
        "bf11cbad580d2be02fd6ae0a6499eedd4621b8bba2393bd060d5647d55695a2a",
    ("cantor", (1,)):
        "e9237d97a29b5b28ed3e483cf555ed3fedf86c78a50bdee5e678b5d814683030",
    ("cantor", (2,)):
        "3b0bc3eefbba9449430ad7874d6f36bb51befb7599c0f32512f66f51ec6aa70d",
    ("gaps3", (1, 1)):
        "fee10fd14b90878987e418013c02cb19334417727b073f3b8611837d550efae3",
}


@pytest.mark.parametrize("name, order", sorted(DERIVATIVE_DIGESTS))
def test_derivative_grids_pinned_bits(name, order):
    free = {"dyadic": (0.3,), "cantor": (0.3,), "gaps3": (0.2, 0.5)}[name]
    grids = derivative_grids(SYSTEMS[name], ProbVector.of(*free), order,
                             _digest_nodes(SYSTEMS[name], 4))
    h = hashlib.sha256()
    for m in sorted(grids):
        g = grids[m]
        h.update(repr((m, g.terms, g.tail_estimate.hex(),
                       g.converged)).encode())
        h.update(g.grid.values.tobytes())
    assert h.hexdigest() == DERIVATIVE_DIGESTS[name, order]


@pytest.mark.parametrize("name, free", [("dyadic", (0.3,)),
                                        ("cantor", (0.3,)),
                                        ("gaps3", (0.2, 0.5)),
                                        ("bent", (0.35,))])
def test_one_symbol_table_is_the_first_step_of_eval_cdf(name, free):
    # at the first float of every region inside the hull the table's
    # masses are eval_cdf's (value, bound) after one step, bit for bit; the
    # first, second and last float of every region make the decision that
    # `_walk` makes at the first float and the table holds, and on an
    # affine system the table maps each to its branch image where the
    # region moves and to itself elsewhere; a region between two adjacent
    # floats holds no float, and no walk reads it
    system, p = SYSTEMS[name], ProbVector.of(*free)
    step, acc1, mass1 = _masses(system, p, system._step)
    _, firsts = _regions(step.keys[::2])
    filled = np.searchsorted(step.keys, firsts, side="right") \
        == np.arange(firsts.size)
    a, b = (float(t) for t in attractor_hull(system))
    held = filled & (a <= firsts) & (firsts <= b)
    assert set(step.park[0][held].tolist()) == {-1, 0, 1}
    for x, acc, mass in zip(firsts[held].tolist(),
                            acc1[held].tolist(), mass1[held].tolist()):
        value, bound = eval_cdf(system, p, x, max_depth=1)
        assert (acc.hex(), mass.hex()) == (value.hex(), bound.hex()), x
    lasts = np.nextafter(np.append(step.keys, math.inf), -math.inf)
    for r, first in enumerate(firsts.tolist()):
        if not filled[r]:
            continue
        park, sym, gap = next(itertools.chain.from_iterable(
            _walk(system._coding.table, first, 1)))
        assert (step.park[0][r], step.window[0][r] + 1, step.inside[0][r]) \
            == (park, sym, not gap), first
        # -0.0 compares as 0.0, and a map that keeps it is the identity
        for y in [first, math.nextafter(first, lasts[r]), lasts[r].item()] \
                + [-0.0] * (first == 0):
            assert next(itertools.chain.from_iterable(
                _walk(system._coding.table, y, 1))) == (park, sym, gap), y
            if step.slope is None:
                continue
            moved = system.branch(sym)(y) if not (gap or park) else y
            assert (step.slope[r] * y + step.intercept[r]).hex() \
                == moved.hex(), y
