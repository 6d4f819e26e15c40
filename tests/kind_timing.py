"""Per-kind time ratios of two checkouts on one benchmark workload.

Pytest does not collect this file (its name does not match `test_*.py`).
Run it from any checkout with the two checkouts to compare, old first:

    python tests/kind_timing.py OLD NEW pointwise 1 2 3 4
    python tests/kind_timing.py OLD NEW grid 1 2 --kind holder_seminorm

It copies each checkout's `src/holderlab` into a temporary directory under
its own package name, imports both into this one process, and runs every
job of `perfbench.workloads.build_rounds(workload, seed)` on both copies
back to back, twice each, in the order old, new, new, old on even jobs and
new, old, old, new on odd jobs.  A machine whose speed drifts between
minutes slows both copies' runs of a job alike, so the ratios below keep
little of that drift.  The jobs run through this checkout's
`perfbench.workloads.execute`, with its module global `hl` pointed at one
copy for each run; no file is written outside the temporary directory,
and the oracles are not run.  With `--kind K` (repeatable) only the jobs
of those kinds run: a small kind's ratio read among the other jobs carries
effects of the jobs run before it.  Before the timed runs, the first job
of each (kind, system) runs once on each copy, untimed: what a process
builds once and keeps (the tables of a system, their scalar forms and
region indices) is then built before any job is timed, and not charged to
whichever job happens to run first.

It prints, per (kind, system), the job count, the summed job times of each
copy (both runs of each job), their ratio new/old and an A/A ratio; then
the same per (kind, size octave) over the jobs with a grid size (the
parameter `n` or `grid_size`), octave k holding the sizes 2^k to
2^(k+1) - 1, so that a change that gains on large grids and loses on small
ones shows; then the ratio of the whole time, of the median job time and
of the workload's tail percentile of job time (`perfbench.run.TAIL_PCT`),
each with its A/A ratio.  A job with the parameter `empirical` set, a
`spectrum_experiment` that calls an evaluator, is listed under its kind
with `/emp` appended.

The A/A ratio is the noise floor of new/old: it splits each job's four
runs into two halves of one run of each copy, A the old copy's first run
and the new copy's second, B the other two, and divides A's time by B's.
A difference between the copies adds to both halves alike, and the halves
take the run positions in turn as the two copies do, so A/A reads what
new/old would read if the copies were one: a new/old of 1.05 beside an
A/A of 0.96 or 1.04 is no evidence either way.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
NAMES = ("holderlab_old", "holderlab_new")


def load_copies(checkouts, tmp: Path) -> list:
    """The package of each checkout's `src/holderlab`, copied into tmp and
    imported under its name in NAMES."""
    sys.path.insert(0, str(tmp))
    packages = []
    for name, checkout in zip(NAMES, checkouts):
        shutil.copytree(Path(checkout) / "src" / "holderlab", tmp / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        packages.append(importlib.import_module(name))
    return packages


def job_times(workloads, packages, workload: str, seeds, kinds) -> list:
    """((kind, system, octave), old seconds, new seconds, A seconds,
    B seconds) of every job of the seeds in turn whose kind is in kinds
    (all jobs if kinds is empty), each job run twice on both packages, back
    to back, after the first job of each (kind, system) has run once on
    each package untimed; octave is the size octave of `octave`, and A and
    B are the halves of the A/A ratio (old's first run and new's second,
    old's second and new's first)."""
    jobs = [job for seed in seeds
            for jobs in workloads.build_rounds(workload, seed)
            for job in jobs if not kinds or job.kind in kinds]
    firsts = {}
    for job in jobs:
        firsts.setdefault(label(job), job)
    for job in firsts.values():
        for package in packages:
            run(workloads, package, job)
    rows = []
    for n, job in enumerate(jobs):
        times = ([], [])
        for side in ((0, 1, 1, 0) if n % 2 == 0 else (1, 0, 0, 1)):
            start = time.perf_counter()
            run(workloads, packages[side], job)
            times[side].append(time.perf_counter() - start)
        (old1, old2), (new1, new2) = times
        rows.append(((*label(job), octave(job.params)), old1 + old2,
                     new1 + new2, old1 + new2, old2 + new1))
    return rows


def label(job) -> tuple:
    """(kind, system) of a job: a `spectrum_experiment` that calls an
    evaluator is listed as `spectrum_experiment/emp`, and a job without a
    system as `bent` on a non-affine kind, else `-`."""
    system = job.params.get(
        "system", "bent" if "nonaffine" in job.kind else "-")
    return job.kind + ("/emp" if job.params.get("empirical") else ""), system


def run(workloads, package, job) -> None:
    """One run of job on package, through this checkout's workloads."""
    workloads.hl = package
    try:
        workloads.execute(job, workloads.EvaluateStats())
    except Exception:  # noqa: BLE001 - a raise is timed too
        pass


def octave(params) -> int | None:
    """k for a job whose grid size (`n`, else `grid_size`) lies in
    2^k .. 2^(k+1) - 1, None for a job without one."""
    size = params.get("n", params.get("grid_size"))
    return None if size is None else int(size).bit_length() - 1


def report(rows, tail_pct: int) -> None:
    for title, column, label in (("system", 1, str),
                                 ("octave", 2, lambda k: f"2^{k}")):
        groups = defaultdict(lambda: [0, 0.0, 0.0, 0.0, 0.0])
        for key, *times in rows:
            if key[column] is None:
                continue
            g = groups[key[0], key[column]]
            g[0] += 1
            for k, t in enumerate(times, 1):
                g[k] += t
        if not groups:
            continue
        print(f"{'kind':24} {title:8} {'jobs':>5} {'old ms':>9} "
              f"{'new ms':>9} {'new/old':>8} {'A/A':>6}")
        for (kind, group), (count, old, new, a, b) in sorted(groups.items()):
            print(f"{kind:24} {label(group):8} {count:5d} {old * 1e3:9.1f} "
                  f"{new * 1e3:9.1f} {new / old:8.3f} {a / b:6.3f}")
    old, new, a, b = ([r[k] for r in rows] for k in range(1, 5))
    for name, stat in (("total", sum), ("p50", statistics.median),
                       (f"p{tail_pct}",
                        lambda t: np.percentile(t, tail_pct))):
        print(f"{name:7} {stat(new) / stat(old):.3f}   "
              f"A/A {stat(a) / stat(b):.3f}")


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        description="per-kind time ratios of two checkouts")
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("workload")
    parser.add_argument("seeds", nargs="+", type=int)
    parser.add_argument("--kind", action="append", default=[],
                        help="time only this kind's jobs (repeatable)")
    args = parser.parse_args(argv)
    old, new, workload, seeds = args.old, args.new, args.workload, args.seeds
    with tempfile.TemporaryDirectory() as tmp:
        packages = load_copies((old, new), Path(tmp))
        # perfbench.workloads imports holderlab by name: let it find a copy
        sys.modules["holderlab"] = packages[0]
        sys.path.insert(0, str(ROOT))
        from perfbench import workloads
        from perfbench.run import TAIL_PCT

        rows = job_times(workloads, packages, workload, seeds,
                         set(args.kind))
    if not rows:
        print(f"no {workload} job of kind {', '.join(args.kind)}",
              file=sys.stderr)
        return 2
    report(rows, TAIL_PCT[workload])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
