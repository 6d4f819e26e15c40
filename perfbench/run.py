"""Run one benchmark workload against the holderlab sources in src/.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0

Workloads: grid, pointwise, spectrum, cli (see perfbench/README.md).  The
loop is closed: one client, one job at a time, the next job once the last
returns.  It runs a fixed number of whole rounds of the seeded job list,
sized from --seconds by ROUNDS_PER_S, so that one seed always runs the same
jobs; it checks every output with its oracle and prints the metrics, ending
with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, with in-process job times rescaled
by the machine-speed probe in speed.py; --trace 1 runs a fixed number of
rounds (TRACE_ROUNDS, independent of --seconds) untraced in a fresh
interpreter and then traced in this one, and reports the per-layer metrics
plus the tracing overhead.
Details (environment, tail percentile, failures, setup samples) go to
.bench_out/ in the checkout.  The run exits 2 when src/ holds no holderlab
sources; any other failure to measure ends in a traceback and exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("grid", "pointwise", "spectrum", "cli")
SETUP_REPEATS = 5
# Rounds per second of --seconds: what a 2-core Xeon whose speed probe read
# 1.1 times nominal ran in 15 s of job time (grid 10 rounds, pointwise 93,
# spectrum 9, cli 2).  A run's job count depends on the seed and --seconds
# alone, never on how fast the program runs, so two runs of one seed attempt
# the same jobs and meet the same known defects.
ROUNDS_PER_S = {"grid": 2 / 3, "pointwise": 6.0, "spectrum": 0.6,
                "cli": 2 / 15}
# Tail percentile per workload.  For pointwise (1080 jobs in a 15 s run) it
# is the highest whole percentile with at least ten jobs beyond it.  The
# others depart from that rule, each because the rule's percentile falls on
# the edge between two bands of job cost, where it jumps with the seed:
# - grid's 170 jobs would give p94, the smallest of the ten seminorm jobs in
#   the top size stratum (4873 to 8193 nodes, O(n^2) cost); its quartile
#   spread over ten seeds was 21%.  p90 (17 beyond) lies among the next
#   stratum's seminorm jobs and spread 5%.
# - spectrum's 81 jobs would give p87, where the smallest spectrum jobs meet
#   the largest empirical experiments; spread 25% over five seeds.  p80 (16
#   beyond) lies among the empirical experiments, whose `evaluate` calls
#   and small cdf grids this tail is meant to show, and spread 8%.
# - cli's 20 jobs leave five beyond its p75.
TAIL_PCT = {"grid": 90, "pointwise": 99, "spectrum": 80, "cli": 75}
# Rounds of each pass of the traced run, fixed so that its counts depend on
# the seed alone; a pass takes about 7 s of job time on a 2-core machine.
# cli rounds come in cold-then-warm pairs.
TRACE_ROUNDS = {"grid": 7, "pointwise": 40, "spectrum": 3, "cli": 8}

PLAIN_CODE = """\
from perfbench.run import plain_pass
plain_pass({workload!r}, {seed}, {work!r})
"""

SETUP_CODE = """\
import sys
import {module}
from perfbench.{builder} import build_rounds
build_rounds({args})
sys.stdout.write("ready\\n")
sys.stdout.flush()
from perfbench.speed import child_slowdown
sys.stdout.write(repr(child_slowdown()) + "\\n")
"""


def child_env():
    paths = [str(ROOT), str(SRC)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def measure_setup(workload, seed):
    """Seconds from spawning a fresh interpreter until it has imported
    holderlab (holderlab.cli for cli) and built its job list, and the
    interpreter's slowdown timed after that, for each of SETUP_REPEATS
    interpreters."""
    if workload == "cli":
        code = SETUP_CODE.format(module="holderlab.cli", builder="clijobs",
                                 args=seed)
    else:
        code = SETUP_CODE.format(module="holderlab", builder="workloads",
                                 args=f"{workload!r}, {seed}")
    samples, slowdowns = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - start)
        slowdown = proc.stdout.readline()
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != b"ready":
            raise RuntimeError(f"setup child exited {proc.returncode}")
        slowdowns.append(float(slowdown))
    return samples, slowdowns


def run_rounds(workload, seconds):
    """Whole rounds one end-to-end run executes; cli rounds come in
    cold-then-warm pairs."""
    block = 2 if workload == "cli" else 1
    return block * max(1, round(seconds * ROUNDS_PER_S[workload] / block))


class Loop:
    """Closed-loop runner: whole rounds, one job at a time, oracle after
    each job outside its timed region."""

    def __init__(self, workload, rounds, work):
        self.workload = workload
        self.rounds = rounds
        self.work = work
        work.mkdir(parents=True)
        self.latencies = []
        self.kinds = []
        self.failures = []       # (kind, Failure)
        self.child_rss = []
        self.child_slowdowns = []
        self.bytes_written = 0
        self.first = {}          # cli: artifacts of each config's first run
        self.jobs = 0
        self.intervals = []      # (start, end) around each job, for the probe

    def run(self, round_count, tracer=None, cli_main=None, probe=None):
        from perfbench import clijobs, oracles, workloads

        stats = workloads.EvaluateStats()
        cache = self.work / "cache"
        for done in range(round_count):
            for job in self.rounds[done % len(self.rounds)]:
                self.jobs += 1
                if probe is not None:
                    probe.probe()
                if tracer is not None:
                    tracer.job, tracer.active = self.jobs, True
                begin = time.perf_counter()
                try:
                    if self.workload != "cli":
                        kind = job.kind
                        dt, out = _timed(tracer, workloads.execute, job, stats)
                    elif cli_main is None:
                        kind = job.key
                        dt, out = clijobs.run_subprocess(
                            job, self.work / f"job-{self.jobs}", cache)
                        self.child_rss.append(out.peak_rss_mb)
                        self.child_slowdowns.append(out.slowdown)
                    else:
                        kind = job.key
                        dt, out = clijobs.run_in_process(
                            job, self.work / f"job-{self.jobs}", cache, cli_main)
                finally:
                    if tracer is not None:
                        tracer.active = False
                self.intervals.append((begin, time.perf_counter()))
                try:
                    if self.workload == "cli":
                        self.bytes_written += sum(
                            len(b) for b in out.artifacts.values())
                        failure = clijobs.check(job, out, self.first)
                    elif isinstance(out, Exception):
                        failure = oracles.Failure(
                            f"raised {type(out).__name__}: {out}")
                    else:
                        failure = oracles.check(job, out)
                except Exception as exc:  # output too broken to judge
                    failure = oracles.Failure(
                        f"oracle raised {type(exc).__name__}: {exc}")
                if failure is not None:
                    self.failures.append((kind, failure))
                self.latencies.append(dt)
                self.kinds.append(kind)
        if probe is not None:
            probe.probe(force=True)
        return stats


def _timed(tracer, fn, *args):
    """(seconds, result) of one call; an exception is the result of a job
    that raised, which its oracle then counts as failed."""
    start = time.perf_counter()
    try:
        if tracer is None:
            out = fn(*args)
        else:
            out = tracer.span("bench", "bench.job", fn, *args)
    except Exception as exc:
        out = exc
    return time.perf_counter() - start, out


def summarize_failures(failures):
    from perfbench.oracles import KNOWN_DEFECTS

    by_defect = Counter(f.defect or "unexpected" for _, f in failures)
    first = {}
    for kind, f in failures:
        first.setdefault(f.defect or "unexpected", f"{kind}: {f.reason}")
    return {key: {"count": n, "first": first[key],
                  "about": KNOWN_DEFECTS.get(key, "not a known defect")}
            for key, n in sorted(by_defect.items())}


def end_to_end(args, rounds, work):
    from perfbench.speed import PYTHON_NOMINAL_S, STREAM_NOMINAL_S, SpeedProbe

    # The probe tracks this process.  A child process runs on whichever core
    # is free, so each child's time is divided by the slowdown it timed
    # itself.
    setup_raw, setup_slowdowns = measure_setup(args.workload, args.seed)
    setup_s = statistics.median(
        t / s for t, s in zip(setup_raw, setup_slowdowns))
    probe = None if args.workload == "cli" else SpeedProbe(args.workload)
    loop = Loop(args.workload, rounds, work / "run")
    round_count = run_rounds(args.workload, args.seconds)
    loop.run(round_count, probe=probe)
    raw = loop.latencies
    if probe is None:
        lat = [t / s for t, s in zip(raw, loop.child_slowdowns)]
    else:
        lat = [t * probe.scale(*iv) for t, iv in zip(raw, loop.intervals)]
    if args.workload == "cli":
        rss = max(loop.child_rss)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pct = TAIL_PCT[args.workload]
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(lat) / sum(lat), "1/s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_tail_s": (float(np.percentile(lat, pct)), "s"),
        "peak_rss_mb": (rss, "MB"),
        "pass_ratio": (1.0 - len(loop.failures) / len(lat), "ratio"),
    }
    by_kind = {}
    for kind, dt in zip(loop.kinds, lat):
        by_kind.setdefault(kind, []).append(dt)
    details = {
        "rounds": round_count,
        "jobs": len(lat),
        "job_seconds_measured": sum(raw),
        "tail_percentile": pct,
        "jobs_beyond_tail": sum(1 for v in lat if v > metrics["job_tail_s"][0]),
        "fail_ratio": len(loop.failures) / len(lat),
        "measured": {
            "setup_s": statistics.median(setup_raw),
            "jobs_per_s": len(raw) / sum(raw),
            "job_p50_s": statistics.median(raw),
            "job_tail_s": float(np.percentile(raw, pct)),
        },
        "probe_nominal_s": [PYTHON_NOMINAL_S, STREAM_NOMINAL_S],
        "probe_median_s": probe and [statistics.median(half)
                                     for half in zip(*probe.samples)],
        "probe_median_slowdown": probe and statistics.median(probe.slowdowns),
        "setup_samples_s": setup_raw,
        "setup_slowdowns": setup_slowdowns,
        "cli_slowdowns": loop.child_slowdowns,
        "median_s_by_kind": {k: statistics.median(v)
                             for k, v in sorted(by_kind.items())},
        "jobs_by_kind": {k: len(v) for k, v in sorted(by_kind.items())},
        "latencies_s": lat,
        "latencies_measured_s": raw,
        "kinds": loop.kinds,
    }
    return loop, metrics, details


def _cli_main(workload):
    """holderlab.cli.main for the in-process cli passes, else None."""
    if workload != "cli":
        return None
    import holderlab.cli

    def cli_main(argv):  # looked up per call, so the tracer's wrapper runs
        return holderlab.cli.main(argv)
    return cli_main


def plain_pass(workload, seed, work):
    """The untraced pass of the traced run, in a fresh interpreter: runs
    TRACE_ROUNDS rounds and writes their job times and failures to
    `work`/plain.json."""
    work = Path(work)
    loop = Loop(workload, build_rounds(workload, seed), work / "run")
    loop.run(TRACE_ROUNDS[workload], cli_main=_cli_main(workload))
    (work / "plain.json").write_text(json.dumps({
        "latencies": loop.latencies,
        "failures": [[kind, f.reason, f.defect] for kind, f in loop.failures],
    }))


def traced(args, rounds, work):
    from perfbench import envinfo
    from perfbench.oracles import Failure
    from perfbench.trace import METRICS, Tracer

    imports = envinfo.import_breakdown(child_env())
    # Both passes start cold: the untraced one in a fresh interpreter, the
    # traced one here, where no job has run yet.  So first-call costs such
    # as filling growth_constant's memo table land in both passes alike.
    code = PLAIN_CODE.format(workload=args.workload, seed=args.seed,
                             work=str(work / "untraced"))
    subprocess.run([sys.executable, "-c", code], env=child_env(),
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   check=True, timeout=170)
    plain = json.loads((work / "untraced" / "plain.json").read_text())
    tracer = Tracer().install()
    try:
        loop = Loop(args.workload, rounds, work / "traced")
        stats = loop.run(TRACE_ROUNDS[args.workload], tracer=tracer,
                         cli_main=_cli_main(args.workload))
    finally:
        tracer.uninstall()
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(spans)
    values = tracer.layer_metrics()
    values.update({
        "exponents.evaluate_calls": stats.calls,
        "exponents.evaluate_points": stats.points,
        "cli.bytes_written": loop.bytes_written if args.workload == "cli" else 0,
        "import.holderlab_s": imports["holderlab_s"],
        "import.scipy_s": imports["scipy_s"],
        "trace.overhead_s": sum(loop.latencies) - sum(plain["latencies"]),
    })
    metrics = {name: (values[name], unit) for name, unit in METRICS}
    details = {
        "rounds": TRACE_ROUNDS[args.workload],
        "jobs": len(loop.latencies),
        "untraced_job_seconds": sum(plain["latencies"]),
        "traced_job_seconds": sum(loop.latencies),
        "spans": len(tracer.spans),
        "spans_file": str(spans.relative_to(ROOT)),
    }
    loop.failures += [(kind, Failure(reason, defect))
                      for kind, reason, defect in plain["failures"]]
    loop.latencies += plain["latencies"]
    return loop, metrics, details


def build_rounds(workload, seed):
    from perfbench import clijobs, workloads

    if workload == "cli":
        return clijobs.build_rounds(seed)
    return workloads.build_rounds(workload, seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "holderlab" / "__init__.py").is_file():
        print(f"perfbench: no holderlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    import holderlab

    if Path(holderlab.__file__).resolve().parent != (SRC / "holderlab").resolve():
        print(f"perfbench: imported holderlab from {holderlab.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from perfbench import envinfo

    rounds = build_rounds(args.workload, args.seed)

    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = traced if args.trace else end_to_end
        loop, metrics, details = run(args, rounds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = summarize_failures(loop.failures)
    correct = "unexpected" not in failures
    result = {
        "correct": correct,
        "attempted": len(loop.latencies),
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, details=details,
                  failures=failures, environment=envinfo.environment())
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{details['jobs']} jobs in {details['rounds']} rounds")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"  tail percentile p{details['tail_percentile']}, "
              f"{details['jobs_beyond_tail']} jobs beyond it")
    for key, info in failures.items():
        print(f"  failed {info['count']:5d}  {key}: {info['first']}")
    print(f"  details in {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
