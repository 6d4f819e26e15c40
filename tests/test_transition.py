import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holderlab import (
    GridFunction,
    ProbVector,
    affine_system,
    apply_transition,
    cdf_grid,
    cdf_values,
    compactify,
    eval_cdf,
    gap_probe,
    holder_seminorm,
    iterate_transition,
    seminorm_refinement_sweep,
    uniform_grid,
)
from holderlab import transition
from holderlab.ifs import compactified_gap_factor, cylinder
from holderlab.transition import _cylinder_probe_max, _ls_slope, _pairs_max


def rational_dyadic():
    return affine_system((Fraction(2), Fraction(2)),
                         (Fraction(0), Fraction(-1)),
                         (Fraction(0), Fraction(1)))


def test_identity_fixed_point(dyadic, half):
    xs = np.linspace(-0.25, 1.25, 513)
    vals = cdf_values(dyadic, half, xs, tol=1e-15)
    expect = np.clip(xs, 0.0, 1.0)
    assert np.max(np.abs(vals - expect)) <= 1e-12


def test_rational_exact_values():
    system = rational_dyadic()
    p = ProbVector((Fraction(1, 4), Fraction(3, 4)))
    val, err = eval_cdf(system, p, Fraction(1, 2))
    assert val == Fraction(1, 4) and err == 0
    val, err = eval_cdf(system, p, Fraction(3, 8))
    assert val == Fraction(7, 64) and err == 0


def test_boundary_clamps(dyadic, quarter):
    assert eval_cdf(dyadic, quarter, -0.5) == (0.0, 0.0)
    assert eval_cdf(dyadic, quarter, 0.0) == (0.0, 0.0)
    assert eval_cdf(dyadic, quarter, 1.0) == (1.0, 0.0)
    assert eval_cdf(dyadic, quarter, 1.5) == (1.0, 0.0)
    with pytest.raises(ValueError, match="tol must be positive"):
        eval_cdf(dyadic, quarter, 0.5, tol=0)


@pytest.mark.parametrize("tol", [math.nan, -1e-12, -math.inf])
def test_nan_or_negative_tol_is_refused(dyadic, quarter, tol):
    # a NaN tol compares False with every mass, so cdf_values once gave 0
    # at every interior point
    xs = [-0.5, 0.3, 0.7, 1.5]
    with pytest.raises(ValueError, match="tol must be 0 or positive"):
        cdf_values(dyadic, quarter, xs, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        eval_cdf(dyadic, quarter, 0.3, tol=tol)
    # tol 0 stays open to cdf_values: the float orbits of 0.3 and 0.7 park
    # on a hull end after finitely many exact doublings
    for x, v in zip(xs, cdf_values(dyadic, quarter, xs, tol=0.0).tolist()):
        want, bound = eval_cdf(dyadic, quarter, x, tol=1e-15)
        assert abs(v - want) <= bound


def test_monotone_nondecreasing(dyadic, quarter):
    xs = np.sort(np.random.default_rng(1).uniform(-0.2, 1.2, 400))
    vals = cdf_values(dyadic, quarter, xs, tol=1e-13)
    assert np.all(np.diff(vals) >= 0)


def test_gap_constant_value(cantor, quarter):
    # the middle-third gap carries no mass, so the cdf is flat across it
    for x in (0.34, 0.5, 0.66):
        val, err = eval_cdf(cantor, quarter, x)
        assert err == 0.0
        assert val == pytest.approx(0.25, abs=1e-15)


def test_cdf_values_matches_scalar(dyadic, quarter):
    xs = np.array([0.1, 0.25, 0.33, 0.5, 0.77, 0.99])
    vec = cdf_values(dyadic, quarter, xs, tol=1e-13)
    for x, v in zip(xs, vec):
        assert eval_cdf(dyadic, quarter, x, tol=1e-13)[0] == pytest.approx(v, abs=1e-13)


def test_cdf_values_custom_branches_match_affine(dyadic, quarter):
    # the scalar walk for callable branches honours tol and max_depth as
    # the array walk does, tol=0 included
    from holderlab import Branch, IFSystem
    twin = IFSystem(branches=(
        Branch.custom(fn=lambda x: 2 * x, dfn=lambda x: 2.0,
                      inv=lambda y: y / 2),
        Branch.custom(fn=lambda x: 2 * x - 1, dfn=lambda x: 2.0,
                      inv=lambda y: (y + 1) / 2)),
        open_set=(0.0, 1.0), expansion=2.0)
    xs = np.concatenate([np.linspace(-0.25, 1.25, 97),
                         np.random.default_rng(0).uniform(0, 1, 64)])
    for kwargs in ({}, {"tol": 0.0, "max_depth": 50},
                   {"tol": 1e-6, "max_depth": 10}):
        np.testing.assert_allclose(cdf_values(twin, quarter, xs, **kwargs),
                                   cdf_values(dyadic, quarter, xs, **kwargs),
                                   rtol=0, atol=1e-12)


def test_functional_equation_on_aligned_grid(dyadic, quarter):
    # dyadic nodes map to dyadic nodes, so interpolation is exact and the
    # fixed-point residual is pure roundoff
    nodes = np.linspace(-0.5, 1.5, 2 ** 10 + 1)
    h = GridFunction(nodes, cdf_values(dyadic, quarter, nodes, tol=1e-14),
                     boundary_left=0.0, boundary_right=1.0)
    mh = apply_transition(dyadic, quarter, h)
    assert np.max(np.abs(mh.values - h.values)) <= 1e-13


def test_cdf_grid_and_uniform_grid(dyadic, quarter):
    nodes = uniform_grid(dyadic, size=257)
    assert nodes[0] == -0.25 and nodes[-1] == 1.25
    g = cdf_grid(dyadic, quarter)
    assert np.array_equal(g.nodes, uniform_grid(dyadic))
    assert g.nodes.size == 4097 and g.nodes[0] == -0.25
    assert g.boundary_left == 0.0 and g.boundary_right == 1.0
    assert np.all(np.diff(g.values) >= 0)


@pytest.mark.parametrize("size", [1, 0, -3])
def test_uniform_grid_refuses_a_size_below_two(dyadic, size):
    # size 1 gave the one node -0.25, size 0 an empty array
    with pytest.raises(ValueError, match="size"):
        uniform_grid(dyadic, size)


def test_iterate_transition_contracts(dyadic, quarter):
    nodes = np.linspace(-0.25, 1.25, 1025)
    start = GridFunction(nodes, np.clip(nodes, 0, 1), 0.0, 1.0)
    diag = iterate_transition(dyadic, quarter, start, n_max=60)
    assert not diag.diverged
    assert diag.r_squared >= 0.99
    assert diag.rate == pytest.approx(0.75, abs=0.05)
    assert diag.residuals[0] > diag.residuals[min(20, len(diag.residuals) - 1)]


def test_iterate_transition_identity_limit(dyadic, half):
    nodes = np.linspace(-0.25, 1.25, 513)
    start = GridFunction(nodes, 0.5 * (1 - np.cos(np.pi * np.clip(nodes, 0, 1))),
                         0.0, 1.0)
    diag = iterate_transition(dyadic, half, start, n_max=50)
    # smooth symmetric starts can contract faster than the p_max bound
    assert 0.2 < diag.rate <= 0.55
    assert diag.residuals[-1] <= 1e-10


def test_iterate_transition_from_its_limit(dyadic, quarter):
    """A start that already is its limit leaves zero residuals in the fit
    window: the rate is 0.0 and R^2 finite, with no log-of-zero warning."""
    nodes = np.linspace(-0.5, 1.5, 1025)
    starts = [GridFunction(nodes, cdf_values(dyadic, quarter, nodes, tol=1e-14),
                           0.0, 1.0),
              GridFunction(nodes, np.zeros_like(nodes), 0.0, 0.0)]
    for start in starts:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diag = iterate_transition(dyadic, quarter, start, n_max=10)
        assert diag.rate == 0.0
        assert math.isfinite(diag.r_squared)
    with pytest.raises(ValueError, match="n_max"):
        iterate_transition(dyadic, quarter, starts[0], n_max=1)


def test_ls_slope_r_squared():
    """`_ls_slope` gives the least-squares slope and R^2 = 1 - ss_res/ss_tot,
    1.0 for a constant sample."""
    xs = np.arange(1.0, 6.0)
    ys = np.array([0.1, 0.9, 2.2, 2.8, 4.1])
    slope, stderr, r2 = _ls_slope(xs, ys)
    fit = np.polynomial.polynomial.Polynomial.fit(xs, ys, 1).convert()
    assert slope == pytest.approx(fit.coef[1], rel=1e-14)
    ss_res = float(np.sum((ys - fit(xs)) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    assert r2 == pytest.approx(1 - ss_res / ss_tot, rel=1e-14)
    assert stderr == pytest.approx(math.sqrt(ss_res / 3 / 10.0), rel=1e-12)
    assert _ls_slope(xs, np.full(5, 2.0)) == (0.0, 0.0, 1.0)


def test_holder_seminorm_modes():
    nodes = np.linspace(0.0, 1.0, 65)
    h = GridFunction(nodes, nodes.copy(), 0.0, 1.0)
    adj = holder_seminorm(h, 1.0, mode="adjacent")
    pairs = holder_seminorm(h, 1.0, mode="pairs")
    assert 0 < adj <= pairs
    with pytest.raises(ValueError):
        holder_seminorm(h, 1.0, mode="bogus")
    for alpha in (0.0, 1.5):
        with pytest.raises(ValueError, match="alpha must lie"):
            holder_seminorm(h, alpha)
    with pytest.raises(ValueError, match="strictly increasing"):
        GridFunction(nodes[::-1], nodes)
    with pytest.raises(ValueError, match="equal length"):
        GridFunction(nodes, nodes[1:])
    # a non-finite value is an error in both modes, not a skipped node
    nodes = np.linspace(0.0, 1.0, 200)
    values = nodes.copy()
    values[77] = np.nan
    for mode in ("pairs", "adjacent"):
        with pytest.raises(ValueError):
            holder_seminorm(GridFunction(nodes, values), 0.5, mode=mode)
    with pytest.raises(ValueError):
        holder_seminorm(GridFunction(nodes, nodes, 0.0, np.inf), 0.5)


def test_grid_order_check_takes_any_float_spacing():
    # nodes more than the largest double apart: np.diff overflowed to inf
    # with a RuntimeWarning, an error here; a NaN node is still refused
    h = GridFunction([-1e308, 1e308], [0.0, 1.0])
    assert h.nodes.tolist() == [-1e308, 1e308]
    for nodes in ([0.0, math.nan, 1.0], [math.nan, 0.0], [1e308, -1e308]):
        with pytest.raises(ValueError, match="strictly increasing"):
            GridFunction(nodes, [0.0] * len(nodes))


def test_cell_oscillation_of_one_node_is_zero():
    # one node has no adjacent pair, so no jump
    assert GridFunction([0.5], [0.3]).cell_oscillation() == 0.0
    assert GridFunction([0.5, 1.0], [0.3, -0.2]).cell_oscillation() == 0.5


def brute_seminorm(h, alpha, include_boundary):
    """All-pairs scan: the reference the pruned "pairs" mode must equal."""
    pos = np.array([compactify(float(x)) for x in h.nodes])
    vals = h.values
    if include_boundary:
        pos = np.concatenate([[-1.0], pos, [1.0]])
        vals = np.concatenate([[h.boundary_left], h.values, [h.boundary_right]])
    best = 0.0
    for i in range(pos.size - 1):
        dd = pos[i + 1:] - pos[i]
        dv = np.abs(vals[i + 1:] - vals[i])
        keep = dd > 0
        if keep.any():
            best = max(best, float((dv[keep] / dd[keep] ** alpha).max()))
    return best


def random_grid(n, seed, node_kind, value_kind):
    rng = np.random.default_rng(seed)
    if node_kind == "uniform":
        nodes = np.linspace(-0.25, 1.25, n)
    elif node_kind == "random":
        nodes = np.cumsum(rng.exponential(size=n)) - n / 2
    else:
        # magnitudes whose compactified positions tie in float arithmetic
        nodes = np.unique(rng.choice([-1.0, 1.0], n)
                          * 10.0 ** rng.uniform(-3, 18, n))
    n = nodes.size
    if value_kind == "monotone":
        values = np.cumsum(rng.exponential(size=n)) / n
    elif value_kind == "constant":
        values = np.full(n, rng.uniform())
    elif value_kind == "tied":
        values = rng.integers(0, 3, n) * 0.5
    else:
        values = rng.standard_normal(n)
    return GridFunction(nodes, values, float(rng.uniform()), float(rng.uniform()))


@settings(max_examples=150, deadline=None)
# compactify puts some huge nodes one ulp below their left neighbour
@example(n=479, seed=1, node_kind="huge", value_kind="wild", alpha=1.0,
         include_boundary=True, sizes=(3, 3))
@example(n=479, seed=1, node_kind="huge", value_kind="wild", alpha=1.0,
         include_boundary=True, sizes=(6, 3))
@example(n=122, seed=3681911326, node_kind="huge", value_kind="tied",
         alpha=1.0, include_boundary=True, sizes=(1000, 1000))
@given(n=st.integers(1, 600), seed=st.integers(0, 2 ** 32 - 1),
       node_kind=st.sampled_from(["uniform", "random", "huge"]),
       value_kind=st.sampled_from(["monotone", "constant", "tied", "wild"]),
       alpha=st.floats(0.0, 1.0, exclude_min=True),
       include_boundary=st.booleans(),
       sizes=st.sampled_from([(1, 1), (3, 1), (3, 3), (6, 3), (12, 4),
                              (64, 8), (64, 64), (64, 1), (1000, 8),
                              (1000, 1000)]))
def test_pairs_seminorm_equals_brute_force(n, seed, node_kind, value_kind,
                                           alpha, include_boundary, sizes):
    # the two-level pruned kernel at any block and sub-block size, with and
    # without the points at minus and plus infinity; holder_seminorm always
    # scans them
    h = random_grid(n, seed, node_kind, value_kind)
    pos, vals = compactify(h.nodes), h.values
    if include_boundary:
        pos = np.concatenate([[-1.0], pos, [1.0]])
        vals = np.concatenate([[h.boundary_left], vals, [h.boundary_right]])
    got = _pairs_max(pos, vals, alpha, *sizes)
    assert got == brute_seminorm(h, alpha, include_boundary)
    assert holder_seminorm(h, alpha) == brute_seminorm(h, alpha, True)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 600), seed=st.integers(0, 2 ** 32 - 1),
       node_kind=st.sampled_from(["uniform", "random", "huge"]),
       value_kind=st.sampled_from(["monotone", "tied", "wild"]),
       alpha=st.floats(0.05, 1.0),
       sizes=st.sampled_from([(6, 3), (12, 4), (64, 8), (64, 16)]))
def test_pairs_scan_pays_only_sub_block_pairs_above_the_best(
        n, seed, node_kind, value_kind, alpha, sizes):
    # the ratios of a pair of distinct sub-blocks are computed only when
    # their own bound, value spread over (gap between their extreme
    # positions)^alpha, lies above the start best, the adjacent maximum
    block, fine = sizes
    h = random_grid(n, seed, node_kind, value_kind)
    pos = np.concatenate([[-1.0], compactify(h.nodes), [1.0]])
    vals = np.concatenate([[h.boundary_left], h.values, [h.boundary_right]])
    scanned, start = [], []
    kernel = transition._pruned_max

    def recorded(vb, fine, lower, den, step, best):
        start.append(best[0])
        return kernel(vb, fine, lower,
                      lambda i, j: scanned.append((i, j)) or den(i, j),
                      step, best)

    transition._pruned_max = recorded
    try:
        got = _pairs_max(pos, vals, alpha, block, fine)
    finally:
        transition._pruned_max = kernel
    assert got == brute_seminorm(h, alpha, True)
    pad = -pos.size % block
    fpos, fval = (np.concatenate([x, np.full(pad, x[-1])]).reshape(-1, fine)
                  for x in (pos, vals))
    for i, j in scanned:
        i, j = i[i < j], j[i < j]
        spread = np.maximum(fval[j].max(1) - fval[i].min(1),
                            fval[i].max(1) - fval[j].min(1))
        gap = np.maximum(fpos[j].min(1) - fpos[i].max(1), 0.0)
        with np.errstate(divide="ignore"):
            assert (spread / gap ** alpha > start[0] * (1 - 1e-9)).all()


SYSTEMS = {
    "dyadic": (affine_system((2.0, 2.0), (0.0, -1.0), (0.0, 1.0)),
               ProbVector.of(0.25)),
    "middle_third": (affine_system((3.0, 3.0), (0.0, -2.0), (0.0, 1.0)),
                     ProbVector.of(0.3)),
    "three_branch": (affine_system((4.0, 4.0, 4.0), (0.0, -1.5, -3.0),
                                   (-0.5, 1.0)),
                     ProbVector.of(0.2, 0.3)),
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_cylinder_probe_table_matches_scalar_cylinders(name):
    system, p = SYSTEMS[name]
    n_max, alpha = 60, 0.6
    s_count = system.branch_count
    rng = np.random.default_rng(7)
    words = np.vstack([np.repeat(np.arange(1, s_count + 1)[:, None], n_max, 1),
                       rng.integers(1, s_count + 1, size=(24, n_max))])
    table = _cylinder_probe_max(system, p, alpha, words)
    log_w = np.log([float(w) for w in p.weights])
    log_s = np.log([float(br.slope) for br in system.branches])
    diam_o = math.log(system.open_set[1] - system.open_set[0])
    for n in (1, 2, 5, 17, 40, 60):
        best = -math.inf
        for w in words[:, :n]:
            lo, hi = cylinder(system, w.tolist())
            log_diam = -float(log_s[w - 1].sum()) + diam_o
            factor = compactified_gap_factor(float(lo), float(hi))
            best = max(best, float(log_w[w - 1].sum())
                       - alpha * (log_diam + math.log(factor)))
        assert table[n - 1] == pytest.approx(math.exp(best), rel=1e-12)


def test_gap_probe_rejects_bad_inputs(dyadic, quarter):
    for alpha in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError):
            gap_probe(dyadic, quarter, alpha, n_max=10, grid_size=129)
    for n_max in (0, 1, 2):
        with pytest.raises(ValueError):
            gap_probe(dyadic, quarter, 0.5, n_max=n_max, grid_size=129)
    # 0 nodes raised IndexError, and 1 node gave a verdict
    for grid_size in (0, 1):
        with pytest.raises(ValueError, match="grid_size"):
            gap_probe(dyadic, quarter, 0.5, n_max=10, grid_size=grid_size)
    # these margins gave reversed, collapsed or NaN nodes and a verdict from
    # the cylinder probes alone; -3 probe words ran as 0
    for margin in (-0.5, -0.7, math.nan):
        with pytest.raises(ValueError, match="margin"):
            gap_probe(dyadic, quarter, 0.5, n_max=10, grid_size=129,
                      margin=margin)
    with pytest.raises(ValueError, match="probe_words"):
        gap_probe(dyadic, quarter, 0.5, n_max=10, grid_size=129,
                  probe_words=-3)
    report = gap_probe(dyadic, quarter, 0.5, n_max=3, grid_size=129)
    assert math.isfinite(report.slope)


def test_gap_probe_dichotomy(dyadic, quarter):
    low = gap_probe(dyadic, quarter, 0.35, n_max=40, grid_size=2049,
                    probe_words=32)
    high = gap_probe(dyadic, quarter, 0.60, n_max=40, grid_size=2049,
                     probe_words=32)
    # just above the critical exponent log2(4/3) the growth is too slow
    # for either verdict
    alpha = math.log2(4 / 3) + 0.005
    edge = gap_probe(dyadic, quarter, alpha, n_max=40, grid_size=2049,
                     probe_words=32)
    assert low.verdict == "bounded"
    assert high.verdict == "growing"
    assert edge.verdict == "inconclusive"
    # the growth rate of the seminorm iterates is log(p_max * 2^alpha)
    assert high.slope == pytest.approx(math.log(0.75 * 2 ** 0.6), abs=1e-3)
    assert edge.slope == pytest.approx(math.log(0.75 * 2 ** alpha), abs=1e-8)


@pytest.mark.parametrize("slopes, shifts, free, alpha", [
    ((2.0, 2.0), (0.0, -1.0), (0.25,), 0.6),
    ((2.0, 2.0), (0.0, -1.0), (0.25,), 0.3),
    ((3.0, 3.0), (0.0, -2.0), (0.3,), 0.9),
    ((4.0, 3.0, 4.0), (0.0, -1.0, -3.0), (0.2, 0.5), 0.8),
])
def test_gap_probe_slope_is_the_closed_form_rate(slopes, shifts, free,
                                                 alpha):
    # for affine branches the alpha-seminorm of the iterates grows at slope
    # max(0, max_i log(p_i * a_i^alpha)): 0 below alpha_minus
    system = affine_system(slopes, shifts, (0.0, 1.0))
    p = ProbVector.of(*free)
    rate = max(0.0, max(math.log(float(p[i]) * a ** alpha)
                        for i, a in zip(system.symbols(), slopes)))
    report = gap_probe(system, p, alpha, n_max=40, grid_size=2049)
    assert abs(report.slope - rate) <= 1e-8


def test_gap_probe_rejects_custom_branches(quarter):
    from holderlab import Branch, IFSystem
    b1 = Branch.custom(fn=lambda x: 3 * x, dfn=lambda x: 3.0,
                       inv=lambda y: y / 3)
    b2 = Branch.custom(fn=lambda x: 3 * x - 2, dfn=lambda x: 3.0,
                       inv=lambda y: (y + 2) / 3)
    system = IFSystem(branches=(b1, b2), open_set=(0.0, 1.0), expansion=3.0)
    with pytest.raises(NotImplementedError):
        gap_probe(system, quarter, 0.5, n_max=5, grid_size=129)


def test_seminorm_refinement_sweep(dyadic, quarter):
    def make_grid(size):
        nodes = np.linspace(-0.25, 1.25, size)
        return GridFunction(nodes, cdf_values(dyadic, quarter, nodes, tol=1e-13),
                            0.0, 1.0)

    alpha_minus = math.log(4 / 3) / math.log(2)
    below = seminorm_refinement_sweep(make_grid, alpha_minus - 0.05,
                                      sizes=(513, 1025, 2049))
    # below the critical exponent the seminorm stabilises under refinement
    assert below[-1] / below[0] < 1.3
