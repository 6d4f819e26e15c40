"""The array coding walk behind `cdf_values`, `gap_probe` and the
conjugacy residual: values that do not depend on the batch or on how the
steps are split between calls, agreement with the scalar walk of
`eval_cdf`, and outputs pinned to recorded bits."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holderlab import (
    Branch,
    IFSystem,
    ProbVector,
    affine_system,
    attractor_hull,
    cdf_values,
    eval_cdf,
    gap_probe,
    validated,
)
from holderlab.conjugacy import conjugacy_residual
from holderlab.ifs import hull_preimages
from holderlab.transition import _orbit_start, _orbit_tables


def _bent_system():
    """A quadratic left branch 2.5x - 0.5x^2 and the affine 2x - 1, both as
    callables, so the walks call the maps on arrays."""
    return validated(IFSystem(branches=(
        Branch.custom(fn=lambda x: 2.5 * x - 0.5 * x * x,
                      dfn=lambda x: 2.5 - x,
                      inv=lambda y: 2.5 - math.sqrt(6.25 - 2.0 * y)),
        Branch.custom(fn=lambda x: 2.0 * x - 1.0, dfn=lambda x: 2.0,
                      inv=lambda y: (y + 1.0) / 2.0)),
        open_set=(0.0, 1.0), expansion=1.5))


SYSTEMS = {
    "dyadic": affine_system((2.0, 2.0), (0.0, -1.0), (0.0, 1.0)),
    "cantor": affine_system((3.0, 3.0), (0.0, -2.0), (0.0, 1.0)),
    "gaps3": affine_system((4.0, 3.0, 4.0), (0.0, -1.0, -3.0), (0.0, 1.0)),
    "bent": _bent_system(),
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


# gap_probe and conjugacy_residual outputs recorded, as float.hex(), before
# the array walk took its one-searchsorted window rule and the pair scan
# its once-per-probe denominators
GAP_CASES = [
    ("dyadic", (0.25,), 0.6, dict(n_max=12, grid_size=1025, probe_words=8,
                                  seed=3)),
    ("cantor", (0.3,), 0.9, dict(n_max=10, grid_size=513, probe_words=4,
                                 seed=1)),
    ("gaps3", (0.2, 0.5), 0.5, dict(n_max=8, grid_size=777, probe_words=0,
                                    seed=0)),
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
]
GAP_SLOPES = [
    ("0x1.029a2bd1ac119p-3", "0x1.8995a81508661p-10", "growing"),
    ("0x1.43b1dda281fbdp-1", "0x1.7d7774cf79555p-15", "growing"),
    ("0x1.67fd7742c1800p-14", "0x1.787c1c9e24c00p-18", "bounded"),
]
RESIDUAL_CASES = [
    ("dyadic", (0.25,), 200, 5, "0x1.8000000000000p-52"),
    ("cantor", (0.4,), 150, 2, "0x1.c000000000000p-51"),
    ("gaps3", (0.2, 0.5), 120, 9, "0x1.4000000000000p-50"),
]


def test_gap_probe_pinned_bits():
    for (name, free, alpha, kwargs), norms, (slope, stderr, verdict) in zip(
            GAP_CASES, GAP_NORMS, GAP_SLOPES):
        report = gap_probe(SYSTEMS[name], ProbVector.of(*free), alpha,
                           **kwargs)
        assert [float(v).hex() for v in report.norms] == norms, name
        assert report.sup_norms.tolist() == [1.0] * len(norms), name
        assert float(report.slope).hex() == slope, name
        assert float(report.slope_stderr).hex() == stderr, name
        assert report.verdict == verdict


def test_conjugacy_residual_pinned_bits():
    for name, free, count, seed, want in RESIDUAL_CASES:
        got = conjugacy_residual(SYSTEMS[name], ProbVector.of(*free), count,
                                 seed=seed)
        assert float(got).hex() == want, name
