"""The benchmark's own checks: seeded job lists, and oracles that reject a
planted wrong value."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from perfbench import clijobs, envinfo, oracles, workloads
from perfbench.trace import Tracer
from perfbench.workloads import Job


def _listing(workload, seed):
    if workload == "cli":
        return [[(j.key, j.text, j.expect) for j in r]
                for r in clijobs.build_rounds(seed)]
    return [[(j.kind, j.params) for j in r]
            for r in workloads.build_rounds(workload, seed)]


@pytest.mark.parametrize("workload", ["grid", "pointwise", "spectrum", "cli"])
def test_seed_fixes_the_job_list(workload):
    assert _listing(workload, 5) == _listing(workload, 5)
    assert _listing(workload, 5) != _listing(workload, 6)


def _bump(xs, k=0, by=1e-6):
    xs = list(xs)
    v, err = xs[k]
    xs[k] = (v + by, err)
    return xs


def _replace_point(points):
    k = next(i for i, pt in enumerate(points)
             if not pt.empty and not pt.clamped)
    points = list(points)
    points[k] = dataclasses.replace(points[k], g=points[k].g + 1e-6)
    return points


def _bump_row(rows):
    rows = [dict(r) for r in rows]
    rows[0]["g"] += 1e-6
    return rows


XS = [0.1, 0.37, 0.5, 0.81]

# (job, how to plant a wrong value in its output)
CASES = [
    (Job("cdf_values", dict(system="cantor", p=(20,), lo=-0.3, hi=1.2, n=513)),
     lambda v: v + 1e-6),
    (Job("holder_seminorm", dict(system="dyadic", p=(20,), lo=-0.3, hi=1.2,
                                 n=257, alpha=0.5)),
     lambda out: (out[0], out[1] * 1.01)),
    (Job("gap_probe", dict(system="dyadic", p=(48,), alpha=0.25, side="below",
                           n_max=20, grid_size=1025, seed=1)),
     lambda r: dataclasses.replace(r, verdict="growing")),
    (Job("iterate_transition", dict(system="gaps3", p=(20, 20), lo=-0.2,
                                    hi=1.3, n=513, n_max=30)),
     lambda d: dataclasses.replace(d, diverged=True)),
    (Job("eval_cdf_float", dict(system="dyadic", p=(20,), xs=XS,
                                rationals=[(1, 7), (5, 11)])),
     _bump),
    (Job("eval_cdf_exact", dict(system="dyadic", p=(20,),
                                xs=[(3, 8), (5, 1024)], dyadic=True)),
     lambda out: _bump(out, by=Fraction(1, 2 ** 30))),
    (Job("eval_cdf_exact", dict(system="cantor", p=(20,),
                                xs=[(1, 7), (3, 13)], dyadic=False)),
     lambda out: _bump(out, by=Fraction(1, 10 ** 6))),
    (Job("encode", dict(system="cantor", p=(20,), xs=XS, depth=20)),
     lambda out: [dataclasses.replace(out[0], word=(3 - out[0].word[0],)
                                      + out[0].word[1:])] + out[1:]),
    (Job("eval_derivative_point", dict(system="gaps3", p=(20, 20), order=(1, 1),
                                       xs=XS)),
     lambda out: _bump(out, by=1e-3)),
    (Job("fd_derivative", dict(system="dyadic", p=(20,), order=(2,), xs=XS)),
     lambda v: v + 1e-3),
    (Job("phi", dict(system="gaps3", p=(20, 20), xs=XS)),
     lambda out: [v + 1e-6 for v in out]),
    (Job("conjugacy_residual", dict(system="cantor", p=(20,), count=20,
                                    seed=3)),
     lambda r: 1e-3),
    (Job("cdf_nonaffine", dict(p=(20,), lo=-0.2, hi=1.2, n=129)),
     lambda v: v + 1e-6),
    (Job("pressure_samples", dict(system="gaps3", p=(20, 20), betas_max=5.0,
                                  count=21)),
     lambda rows: [(rows[0][0], rows[0][1] + 1e-6, rows[0][2])] + rows[1:]),
    (Job("spectrum", dict(system="dyadic", p=(20,), count=41, lo=0.4, hi=1.7)),
     _replace_point),
    (Job("spectrum_experiment", dict(system="cantor", p=(20,),
                                     betas=[-1.0, 0.5], count=4, seed=2,
                                     empirical=False)),
     _bump_row),
    (Job("pressure_root_nonaffine", dict(p=(20,), betas=(0.0, 1.0, 2.0),
                                         level=4)),
     lambda roots: [roots[0], 1e-6, roots[2]]),
]


@pytest.mark.parametrize("job, plant", CASES, ids=[c[0].kind for c in CASES])
def test_oracle_accepts_output_and_rejects_planted_value(job, plant):
    out = workloads.execute(job, workloads.EvaluateStats())
    assert oracles.check(job, out) is None
    failure = oracles.check(job, plant(out))
    assert failure is not None and failure.defect is None


def test_derivative_grids_oracle():
    # dyadic-aligned nodes land on branch images, where the series is right
    aligned = Job("derivative_grids", dict(system="dyadic", p=(20,),
                                           order=(1,), lo=-0.5, hi=1.5, n=257))
    out = workloads.execute(aligned, workloads.EvaluateStats())
    assert oracles.check(aligned, out) is None
    grid = out[(1,)].grid
    planted = dict(out)
    planted[(1,)] = dataclasses.replace(
        out[(1,)], grid=grid.with_values(grid.values + 1e-6))
    assert oracles.check(aligned, planted) is not None
    # off the aligned nodes the reported bound fails: a known defect
    shifted = Job("derivative_grids", dict(aligned.params, lo=-0.4137))
    out = workloads.execute(shifted, workloads.EvaluateStats())
    assert oracles.check(shifted, out).defect == "takagi.derivative_grids_bound"
    # a new error at a later node is not hidden behind the known defect
    values = out[(1,)].grid.values.copy()
    values[-2] = np.nan
    planted = dict(out)
    planted[(1,)] = dataclasses.replace(
        out[(1,)], grid=out[(1,)].grid.with_values(values))
    assert oracles.check(shifted, planted).defect is None


def test_cli_oracle():
    job = clijobs.CliJob("spectrum-float", "{}", 0)
    ok = clijobs.CliResult(0, "", {"manifest.json":
                                   b'{"outputs": [{"file": "s.csv"}]}',
                                   "s.csv": b"1\n"})
    first = {}
    assert clijobs.check(job, ok, first) is None
    changed = dataclasses.replace(ok, artifacts=dict(ok.artifacts, **{"s.csv": b"2\n"}))
    assert clijobs.check(job, changed, first) is not None
    assert clijobs.check(job, dataclasses.replace(ok, code=2), first) is not None
    bad = clijobs.CliJob("grid-size-x", "{}", 1, "cli.grid_size_exit_code", "exit2")
    assert clijobs.check(bad, clijobs.CliResult(1, "", {}), {}) is None
    assert clijobs.check(bad, clijobs.CliResult(2, "", {}), {}).defect == \
        "cli.grid_size_exit_code"
    assert clijobs.check(bad, clijobs.CliResult(1, "Traceback", {}), {}).defect \
        is None


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy.optimize",
        "import time:        50 |         50 |     numpy.core",
        "import time:        10 |        360 |   holderlab.thermo",
        "import time:         5 |        365 | holderlab",
        "import time:        70 |         70 | scipy.special",
    ])
    got = envinfo.parse_importtime(text)
    assert math.isclose(got["holderlab_s"], 365e-6)
    assert math.isclose(got["scipy_s"], 370e-6)


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.active = True
    tracer.spans = [["a", "a.f", 0.0, 10.0, -1, 1], ["b", "b.g", 2.0, 5.0, 0, 1],
                    ["b", "b.h", 6.0, 7.0, 0, 1], ["c", "c.k", 3.0, 4.0, 1, 1]]
    assert np.allclose(tracer.self_times(), [6.0, 2.0, 1.0, 1.0])


def test_float_orbit_defect_is_named():
    # 1/13 lies on the middle-third Cantor set: its float orbit drifts
    job = Job("eval_cdf_float", dict(system="cantor", p=(35,), xs=[],
                                     rationals=[(1, 13)]))
    out = workloads.execute(job, workloads.EvaluateStats())
    assert oracles.check(job, out).defect == "transition.float_orbit_bound"
    # the defect reports bound 0; a miss with a nonzero bound is new
    (v, err), = out
    assert err == 0
    assert oracles.check(job, [(v, 1e-12)]).defect is None
