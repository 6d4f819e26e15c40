"""Seeded job lists for the in-process workloads, and the calls that run them.

A job is a kind plus plain-data parameters.  `build_rounds` turns a workload
name and a seed into a list of rounds and nothing else, so one seed always
gives one job list.  Every round has the same mix of job kinds, takes its systems by
rotation and draws its sizes from fixed strata or antithetic pairs, so that
a run's latency distribution does not hinge on what one seed happened to
draw; the seed sets weights, sizes within their strata, points and exponents.
`execute` hands the generated inputs to holderlab's public functions and
returns what they produced; oracles.py judges that output.

Weights are multiples of 1/64, exact in binary floating point, so each float
system has an exact rational twin for the Fraction-mode oracles.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import holderlab as hl

# Affine systems on the open set (0, 1), as (slopes, intercepts).
AFFINE = {
    "dyadic": ((2, 2), (0, -1)),        # two full branches touching at 1/2
    "cantor": ((3, 3), (0, -2)),        # separating middle-third
    "gaps3": ((4, 3, 4), (0, -1, -3)),  # three branches, two gaps
}
DENOM = 64

# Rounds built per run; a run that finishes them all starts over.
ROUND_COUNT = {"grid": 40, "pointwise": 200, "spectrum": 30}


@dataclass
class Job:
    kind: str
    params: dict


@dataclass
class EvaluateStats:
    """What the benchmark's own `evaluate` callable received."""

    calls: int = 0
    points: int = 0


# ---------------------------------------------------------------------------
# systems


def affine(name: str, exact: bool = False) -> hl.IFSystem:
    num = Fraction if exact else float
    slopes, intercepts = AFFINE[name]
    return hl.affine_system(tuple(num(a) for a in slopes),
                            tuple(num(b) for b in intercepts),
                            (num(0), num(1)))


def weights(free, exact: bool = False) -> hl.ProbVector:
    return hl.ProbVector.of(*[Fraction(k, DENOM) if exact else k / DENOM
                              for k in free])


# The non-affine system: a quadratic left branch (2.5x - 0.5x^2, slope 1.5 to
# 2.5 on its window) and the affine right branch 2x - 1, both as callables,
# so holderlab takes its per-point and sandwich paths.
def _bent(x):
    return 2.5 * x - 0.5 * x * x


def _bent_d(x):
    return 2.5 - x


def _bent_inv(y):
    return 2.5 - math.sqrt(6.25 - 2.0 * y)


def _right(x):
    return 2.0 * x - 1.0


def _right_d(x):
    return 2.0


def _right_inv(y):
    return (y + 1.0) / 2.0


def bent_system() -> hl.IFSystem:
    branches = (hl.Branch.custom(_bent, _bent_d, _bent_inv),
                hl.Branch.custom(_right, _right_d, _right_inv))
    return hl.validated(hl.IFSystem(branches=branches, open_set=(0.0, 1.0),
                                    expansion=1.5))


def log_ratios(name: str, free) -> list:
    """log(1/p_i) / log(slope_i) per branch; min and max are alpha_minus and
    alpha_plus in closed form."""
    ws = [k / DENOM for k in free]
    ws.append(1.0 - sum(ws))
    return [-math.log(w) / math.log(a) for w, a in zip(ws, AFFINE[name][0])]


# ---------------------------------------------------------------------------
# seeded draws


def _rng(workload: str, seed: int, index) -> random.Random:
    # str seeds hash through SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"holderlab-bench/{workload}/{seed}/{index}")


def _even(phase, i):
    """Position of round i in [0, 1): (phase + i / golden ratio) mod 1.  The
    seed sets the phase; over any run of rounds the positions spread evenly,
    so a run's total cost hardly depends on the seed."""
    return (phase + i * (math.sqrt(5) - 1) / 2) % 1.0


def _strata(phases, i, lo, hi):
    """One integer from each of len(phases) equal log strata of [lo, hi],
    placed in stratum j by _even(phases[j], i)."""
    step = (math.log(hi) - math.log(lo)) / len(phases)
    return [int(round(math.exp(math.log(lo) + (j + _even(ph, i)) * step)))
            for j, ph in enumerate(phases)]


def _pair(rng, lo, hi):
    """Antithetic pair of integers in [lo, hi] with a fixed sum."""
    u = rng.randint(lo, hi)
    return u, lo + hi - u


def free_weights(rng, name, heavy=False):
    """Free weights in 64ths.  heavy=True puts at least 0.45 on one branch,
    which keeps alpha_minus well inside (0, 1) for the gap probes."""
    if len(AFFINE[name][0]) == 2:
        k = rng.randint(38, 54) if heavy else rng.choice(_UNEVEN)
        return (k,) if rng.random() < 0.5 else (DENOM - k,)
    big = rng.randint(29, 45) if heavy else rng.randint(6, 40)
    a = rng.randint(6, DENOM - big - 6)
    free = [big, a, DENOM - big - a]
    rng.shuffle(free)
    return tuple(free[:2])


# two-branch weights other than 1/2, which would make the spectrum one point
_UNEVEN = [k for k in range(8, 57) if k != DENOM // 2]


def _system(rng, turn, heavy=False, names=tuple(AFFINE)):
    """System by rotation, weights by seed.  `turn` (round index plus job
    slot) picks the system, so every seed gives a run the same systems in
    the same places and only the weights, sizes and points change."""
    name = names[turn % len(names)]
    return name, free_weights(rng, name, heavy)


def _span(rng):
    """Grid ends past the hull [0, 1], drawn so nodes miss dyadic points."""
    return -rng.uniform(0.05, 0.45), 1.0 + rng.uniform(0.05, 0.45)


def _points(rng, k):
    return [rng.uniform(0.001, 0.999) for _ in range(k)]


def _rational(rng):
    """A non-dyadic rational in (0, 1) as (numerator, denominator); many of
    them sit on the attractors, where orbits neither park nor leave."""
    q = rng.choice((7, 11, 13, 101, 127, 997))
    return rng.randint(1, q - 1), q


def _order_for(name):
    return (1, 1) if len(AFFINE[name][0]) == 3 else (1,)


# ---------------------------------------------------------------------------
# rounds


def _grid_round(rng, i, phases):
    jobs = []
    for j, n in enumerate(_strata(phases[:9], i, 2 ** 10 + 1, 2 ** 16 + 1)):
        name, free = _system(rng, i + j)
        lo, hi = _span(rng)
        jobs.append(Job("cdf_values", dict(system=name, p=free, lo=lo, hi=hi,
                                           n=n)))
    sizes = _strata(phases[9:13], i, 1025, 8193)
    if i == 0:
        sizes[-1] = 8193  # every run meets the largest grid: steady peak memory
    for j, n in enumerate(sizes):
        name, free = _system(rng, i + j)
        lo, hi = _span(rng)
        jobs.append(Job("holder_seminorm", dict(
            system=name, p=free, lo=lo, hi=hi, n=n,
            alpha=rng.uniform(0.2, 1.0))))
    name, free = _system(rng, i, heavy=True)
    am = min(log_ratios(name, free))
    sides = (("below", am * (1 - rng.uniform(0.25, 0.5))),
             ("above", am + rng.uniform(0.08, 0.2)))
    for (side, alpha), n_max, size in zip(sides, _pair(rng, 30, 60),
                                          _pair(rng, 2049, 8193)):
        jobs.append(Job("gap_probe", dict(
            system=name, p=free, alpha=alpha, side=side, n_max=n_max,
            grid_size=size, seed=rng.randint(0, 2 ** 31))))
    for j in (1, 2):
        name, free = _system(rng, i + j)
        lo, hi = _span(rng)
        jobs.append(Job("iterate_transition", dict(
            system=name, p=free, lo=lo, hi=hi,
            n=1025 + int(7168 * _even(phases[13 + j], i)),
            n_max=40 + int(40 * _even(phases[15 + j], i)))))
    rng.shuffle(jobs)
    return jobs


def _pointwise_round(rng, i, phases):
    jobs = []
    name, free = _system(rng, i)
    jobs.append(Job("eval_cdf_float", dict(
        system=name, p=free, xs=_points(rng, 48),
        rationals=[_rational(rng) for _ in range(48)])))
    free = free_weights(rng, "dyadic")
    xs = []
    for _ in range(48):
        m = rng.randint(6, 20)
        xs.append((rng.randint(1, 2 ** m - 1), 2 ** m))
    jobs.append(Job("eval_cdf_exact", dict(system="dyadic", p=free, xs=xs,
                                           dyadic=True)))
    name, free = _system(rng, i + 1)
    jobs.append(Job("eval_cdf_exact", dict(
        system=name, p=free, xs=[_rational(rng) for _ in range(24)],
        dyadic=False)))
    name, free = _system(rng, i + 2)
    jobs.append(Job("encode", dict(system=name, p=free, xs=_points(rng, 400),
                                   depth=rng.randint(32, 64))))
    for order in ((1,), (2,), (1, 1)):
        name, free = _system(rng, i, names=("gaps3",) if len(order) == 2
                             else ("dyadic", "cantor"))
        jobs.append(Job("eval_derivative_point", dict(
            system=name, p=free, order=order, xs=_points(rng, 48))))
    name, free = _system(rng, i + 1)
    order = (1, 1) if len(free) == 2 else ((1,), (2,))[i % 2]
    jobs.append(Job("fd_derivative", dict(system=name, p=free, order=order,
                                          xs=_points(rng, 48))))
    name, free = _system(rng, i + 2)
    lo, hi = _span(rng)
    jobs.append(Job("derivative_grids", dict(
        system=name, p=free, order=_order_for(name), lo=lo, hi=hi,
        n=rng.randint(257, 1025))))
    name, free = _system(rng, i)
    jobs.append(Job("phi", dict(system=name, p=free, xs=_points(rng, 48))))
    name, free = _system(rng, i + 1)
    jobs.append(Job("conjugacy_residual", dict(
        system=name, p=free, count=100 + int(200 * _even(phases[0], i)),
        seed=rng.randint(0, 2 ** 31))))
    lo, hi = _span(rng)
    jobs.append(Job("cdf_nonaffine", dict(p=(rng.randint(8, 56),), lo=lo,
                                          hi=hi, n=rng.randint(257, 1025))))
    rng.shuffle(jobs)
    return jobs


def _spectrum_round(rng, i, phases):
    # Nine jobs whose costs fall in bands: pressure samples lowest, then the
    # non-affine roots and plain experiments, the two empirical experiments
    # around p80 (the tail this workload reports), and the spectrum on top.
    jobs = []
    name, _ = _system(rng, i + 1)
    for m in _pair(rng, 20, 80):
        jobs.append(Job("pressure_samples", dict(
            system=name, p=free_weights(rng, name),
            betas_max=rng.uniform(4.0, 10.0), count=2 * m + 1)))
    name, free = _system(rng, i)
    ratios = log_ratios(name, free)
    pad = 0.02 * (max(ratios) - min(ratios))
    jobs.append(Job("spectrum", dict(
        system=name, p=free, count=201 + int(600 * _even(phases[0], i)),
        lo=min(ratios) - pad, hi=max(ratios) + pad)))
    name, _ = _system(rng, i + 2)
    for count in _pair(rng, 16, 32):
        jobs.append(Job("spectrum_experiment", dict(
            system=name, p=free_weights(rng, name),
            betas=sorted(rng.uniform(-4, 4) for _ in range(3)),
            count=count, seed=rng.randint(0, 2 ** 31), empirical=False)))
    for j in range(2):
        name, free = _system(rng, i + j)
        jobs.append(Job("spectrum_experiment", dict(
            system=name, p=free,
            betas=sorted(rng.uniform(-4, 4) for _ in range(3)),
            count=4, seed=rng.randint(0, 2 ** 31), empirical=True)))
        jobs.append(Job("pressure_root_nonaffine", dict(
            p=(rng.randint(8, 56),), betas=(0.0, 1.0, rng.uniform(1.5, 3.0)),
            level=7)))
    rng.shuffle(jobs)
    return jobs


_ROUNDS = {"grid": _grid_round, "pointwise": _pointwise_round,
           "spectrum": _spectrum_round}


def build_rounds(workload: str, seed: int) -> list:
    """The job list of one in-process workload, as a list of rounds."""
    make = _ROUNDS[workload]
    run_rng = _rng(workload, seed, "phases")
    phases = [run_rng.random() for _ in range(18)]
    return [make(_rng(workload, seed, i), i, phases)
            for i in range(ROUND_COUNT[workload])]


# ---------------------------------------------------------------------------
# execution


def _float_inputs(params):
    return affine(params["system"]), weights(params["p"])


def float_points(params):
    return params["xs"] + [a / b for a, b in params["rationals"]]


def _nodes(params):
    return np.linspace(params["lo"], params["hi"], params["n"])


def _run_cdf_values(params, stats):
    system, p = _float_inputs(params)
    return hl.cdf_values(system, p, _nodes(params))


def _run_holder_seminorm(params, stats):
    system, p = _float_inputs(params)
    nodes = _nodes(params)
    h = hl.GridFunction(nodes, hl.cdf_values(system, p, nodes), 0.0, 1.0)
    return h, hl.holder_seminorm(h, params["alpha"])


def _run_gap_probe(params, stats):
    system, p = _float_inputs(params)
    return hl.gap_probe(system, p, params["alpha"], n_max=params["n_max"],
                        grid_size=params["grid_size"], seed=params["seed"])


def _run_iterate_transition(params, stats):
    system, p = _float_inputs(params)
    nodes = _nodes(params)
    h0 = hl.GridFunction(nodes, np.clip(nodes, 0.0, 1.0), 0.0, 1.0)
    return hl.iterate_transition(system, p, h0, n_max=params["n_max"])


def _run_eval_cdf_float(params, stats):
    system, p = _float_inputs(params)
    return [hl.eval_cdf(system, p, x) for x in float_points(params)]


def _run_eval_cdf_exact(params, stats):
    system = affine(params["system"], exact=True)
    p = weights(params["p"], exact=True)
    return [hl.eval_cdf(system, p, Fraction(a, b)) for a, b in params["xs"]]


def _run_encode(params, stats):
    system, _ = _float_inputs(params)
    return [hl.encode(system, x, params["depth"]) for x in params["xs"]]


def _run_eval_derivative_point(params, stats):
    system, p = _float_inputs(params)
    return [hl.eval_derivative_point(system, p, params["order"], x)
            for x in params["xs"]]


def _run_fd_derivative(params, stats):
    system, p = _float_inputs(params)
    return hl.fd_derivative(system, p, params["order"], params["xs"])


def _run_derivative_grids(params, stats):
    system, p = _float_inputs(params)
    return hl.derivative_grids(system, p, params["order"], _nodes(params))


def _run_phi(params, stats):
    system, p = _float_inputs(params)
    return [hl.phi(system, p, x) for x in params["xs"]]


def _run_conjugacy_residual(params, stats):
    system, p = _float_inputs(params)
    return hl.conjugacy_residual(system, p, params["count"],
                                 seed=params["seed"])


def _run_cdf_nonaffine(params, stats):
    return hl.cdf_values(bent_system(), weights(params["p"]), _nodes(params))


def _run_pressure_samples(params, stats):
    system, p = _float_inputs(params)
    b = params["betas_max"]
    return hl.PressureCurve(system, p).samples(
        np.linspace(-b, b, params["count"]))


def _run_spectrum(params, stats):
    system, p = _float_inputs(params)
    return hl.spectrum(system, p, np.linspace(params["lo"], params["hi"],
                                              params["count"]))


def _run_spectrum_experiment(params, stats):
    system, p = _float_inputs(params)
    evaluate = None
    if params["empirical"]:
        def evaluate(xs):
            stats.calls += 1
            stats.points += len(xs)
            return hl.cdf_values(system, p, xs, tol=1e-14)
    return hl.spectrum_experiment(system, p, params["betas"],
                                  count=params["count"], seed=params["seed"],
                                  evaluate=evaluate)


def _run_pressure_root_nonaffine(params, stats):
    system, p = bent_system(), weights(params["p"])
    return [hl.solve_pressure_root(system, p, b, level=params["level"])
            for b in params["betas"]]


_RUN = {name[len("_run_"):]: fn for name, fn in globals().items()
        if name.startswith("_run_")}


def execute(job: Job, stats: EvaluateStats):
    """Run one job through holderlab's public functions; return its output."""
    return _RUN[job.kind](job.params, stats)
