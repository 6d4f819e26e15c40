"""The interpolating transition operator: its stencils give np.interp's
bits, and `iterate_transition`, which steps only the nodes whose values can
still change, gives the bits of a full-grid iteration written here with
np.interp."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bent_system
from holderlab import (
    GridFunction,
    ProbVector,
    affine_system,
    apply_transition,
    cdf_values,
    derivative_grids,
    iterate_transition,
    uniform_grid,
)
from holderlab import transition
from holderlab.ifs import _branch_on_array
from holderlab.transition import (
    _branch_images,
    _freeze_order,
    _iterates,
    _read,
    _stencil,
)

SYSTEMS = {
    "dyadic": (affine_system((2.0, 2.0), (0.0, -1.0), (0.0, 1.0)), (0.3,)),
    "cantor": (affine_system((3.0, 3.0), (0.0, -2.0), (0.0, 1.0)), (0.3,)),
    "gaps3": (affine_system((4.0, 3.0, 4.0), (0.0, -1.0, -3.0), (0.0, 1.0)),
              (0.2, 0.5)),
    "bent": (bent_system(), (0.35,)),
}

# values and boundaries: signed zeros and small numbers often, any finite
# float otherwise
VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                   st.floats(allow_nan=False, allow_infinity=False))
POINT_KINDS = ("node", "up", "down", "last", "below", "above", "nan",
               "between", "any")


@st.composite
def interpolations(draw):
    """(nodes, values, left, right, points): uniform or drawn nodes (one
    or more; drawn ones may be huge or infinite), and points on nodes, one
    ulp beside them, on the last node, past either end, NaN, between two
    nodes or anywhere."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        lo = draw(st.floats(-1e6, 1e6))
        nodes = np.linspace(lo, lo + draw(st.floats(1e-3, 1e6)), n)
    else:
        nodes = np.array(sorted(draw(st.lists(
            st.floats(allow_nan=False), min_size=n, max_size=n,
            unique=True))))
    values = draw(st.lists(VALUES, min_size=n, max_size=n))
    left, right = draw(VALUES), draw(VALUES)
    points = []
    for kind in draw(st.lists(st.sampled_from(POINT_KINDS), min_size=1,
                              max_size=12)):
        t = float(nodes[draw(st.integers(0, n - 1))])
        far = draw(st.floats(0.0, math.inf, exclude_min=True))
        points.append({
            "node": t, "up": math.nextafter(t, math.inf),
            "down": math.nextafter(t, -math.inf), "last": float(nodes[-1]),
            "below": float(nodes[0]) - far, "above": float(nodes[-1]) + far,
            "nan": math.nan,
            "between": t + draw(st.floats(0.0, 1.0)) * (
                float(nodes[min(np.searchsorted(nodes, t) + 1, n - 1)]) - t),
            "any": draw(st.floats()),
        }[kind])
    return nodes, np.array(values), left, right, np.array(points)


@settings(max_examples=400, deadline=None)
@example((np.array([0.0]), np.array([2.0]), -0.0, 1.0,
          np.array([math.nan, -1.0, 0.0, -0.0, 1.0])))
@example((np.array([0.0, 1.0]), np.array([-0.0, -0.0]), 0.0, -0.0,
          np.array([0.5, 1.0, 0.0, math.nan, 2.0, -1.0])))
@example((np.array([-math.inf, 0.0, 1.0, math.inf]),
          np.array([1.0, 2.0, -3.0, 4.0]), 5.0, 6.0,
          np.array([-5.0, 0.5, 7.0, math.inf, -math.inf, math.nan])))
@example((np.array([-1e308, 1e308]), np.array([1.0, 1.0]), 0.0, 0.0,
          np.array([9e307, 0.0, -9e307])))
@given(interpolations())
def test_stencil_step_is_np_interp_byte_for_byte(case):
    nodes, values, left, right, points = case
    h = GridFunction(nodes, values, left, right)
    want = np.interp(points, nodes, values, left=left, right=right)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the points as they come, and as one row of branch images
        for y in (points, points[None, :]):
            got = _read(h, (None, *_stencil(nodes, y)))
            assert got.ravel().tobytes() == want.tobytes()


def _reference(system, p, h0, n_max):
    """The iterates of h0 at every node, each step one np.interp call per
    branch on the whole grid, and their residuals, as `iterate_transition`
    defines them."""
    nodes = h0.nodes
    lim = (h0.boundary_right - h0.boundary_left) \
        * cdf_values(system, p, nodes, tol=1e-14) + h0.boundary_left
    images = [(w, _branch_on_array(br, nodes))
              for w, br in zip(p.as_floats().weights, system.branches)]
    vals, steps = h0.values, []
    for _ in range(n_max):
        new = np.zeros_like(vals)
        for w, y in images:
            new += w * np.interp(y, nodes, vals, left=h0.boundary_left,
                                 right=h0.boundary_right)
        vals = new
        steps.append(vals)
    return steps, np.array([np.max(np.abs(v - lim)) for v in steps])


@pytest.mark.parametrize("n_max", [2, 3, 17, 80])
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_iterates_carry_the_bits_of_a_full_grid_iteration(name, n_max):
    system, free = SYSTEMS[name]
    p = ProbVector.of(*free)
    # margin 0.3 and a start that is not constant off the hull: the nodes
    # there move until every node they read is final
    nodes = uniform_grid(system, 601, margin=0.3)
    h0 = GridFunction(nodes, np.sin(7 * nodes) + nodes, -0.5, 1.5)
    steps, residuals = _reference(system, p, h0, n_max)
    assert iterate_transition(system, p, h0, n_max).residuals.tobytes() \
        == residuals.tobytes()
    stencils = _branch_images(system, p, nodes)
    order, sizes = _freeze_order(stencils, nodes.size)
    assert sizes[-1] < nodes.size   # some node is left out
    vals = h0.values.copy()
    for want, (values, new, keep) in zip(steps, _iterates(h0, stencils,
                                                          order, sizes)):
        vals[order[:new.size]] = new
        assert vals.tobytes() == values.tobytes() == want.tobytes()


def test_cantor_iteration_steps_a_tenth_of_its_nodes(monkeypatch):
    # the nodes off the hull and in its gaps, and the nodes whose images
    # leave the grid, stop being stepped: 28393 node-steps of 80 * 4097
    system, free = SYSTEMS["cantor"]
    nodes = uniform_grid(system, 4097)
    steps = []

    def counted(*args):
        for values, new, keep in _iterates(*args):
            steps.append(new.size)
            yield values, new, keep

    monkeypatch.setattr(transition, "_iterates", counted)
    iterate_transition(system, ProbVector.of(*free),
                       GridFunction(nodes, np.clip(nodes, 0, 1), 0.0, 1.0))
    assert len(steps) == 80 and sum(steps) == 28393


def test_iteration_over_infinite_nodes_reads_np_interp():
    # an image inside the infinite spacing left of -1 is odd: np.interp
    # reads it, and every node is stepped
    system, free = SYSTEMS["dyadic"]
    p = ProbVector.of(*free)
    nodes = np.array([-math.inf, -1.0, -0.5, 0.0, 0.3, 0.5, 0.7, 1.0, 2.0,
                      math.inf])
    h0 = GridFunction(nodes, np.cos(np.arange(10.0)), 0.25, 0.75)
    assert _branch_images(system, p, nodes)[4] is not None
    steps, residuals = _reference(system, p, h0, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert apply_transition(system, p, h0).values.tobytes() \
            == steps[0].tobytes()
        assert iterate_transition(system, p, h0, 6).residuals.tobytes() \
            == residuals.tobytes()


@pytest.mark.parametrize("bad", ["value nan", "value inf", "left nan",
                                 "right -inf"])
def test_transition_refuses_values_that_are_not_finite(bad):
    # a NaN value gave rate 0.0, R^2 1.0 and diverged False, the verdict of
    # a reached limit, and an inf raised numpy's RuntimeWarning
    system, free = SYSTEMS["dyadic"]
    p = ProbVector.of(*free)
    nodes = np.linspace(-0.25, 1.25, 1025)
    where, value = bad.split()
    values = np.clip(nodes, 0.0, 1.0)
    ends = {"left": 0.0, "right": 1.0}
    if where == "value":
        values[300] = float(value)
    else:
        ends[where] = float(value)
    h0 = GridFunction(nodes, values, ends["left"], ends["right"])
    with pytest.raises(ValueError, match="finite values and boundaries"):
        apply_transition(system, p, h0)
    with pytest.raises(ValueError, match="finite values and boundaries"):
        iterate_transition(system, p, h0)


def test_transition_refuses_a_grid_of_no_node():
    # np.interp refused it with its own message
    system, free = SYSTEMS["dyadic"]
    p = ProbVector.of(*free)
    empty = GridFunction(np.array([]), np.array([]), 0.0, 1.0)
    for call in (lambda: apply_transition(system, p, empty),
                 lambda: iterate_transition(system, p, empty),
                 lambda: derivative_grids(system, p, (1,), np.array([]))):
        with pytest.raises(ValueError, match="at least one node"):
            call()
