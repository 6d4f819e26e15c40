"""The `cli` workload: seeded configs run as fresh `python -m holderlab.cli`.

Each run draws a pool of configs: for every one of the eight commands a
float-mode and a rational-mode config, plus malformed configs, each with the
exit code the README documents for it.  A round runs every command once,
half of them in rational mode, and the next round repeats the same configs,
so every config meets an empty cache and then a warm one.  Each round also
runs two malformed configs: one that the CLI handles as documented and one
from the catalogued exit-code breaks of ROADMAP item 5.  Keeping one of each
per round holds the pass ratio steady across seeds.

Every process gets the run's own HOLDERLAB_CACHE, empty at the start of the
run, and its own output directory; nothing touches ~/.cache.  The process is
`python -m holderlab.cli` run through runpy by a few lines that record, at
exit, its peak memory and its own speed against the nominal machine
(speed.py), by which its time is rescaled.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import ROOT, SRC
from .oracles import Failure
from .workloads import AFFINE, DENOM, free_weights

ROUND_COUNT = 12


@dataclass
class CliJob:
    key: str                 # config identity; repeats share it
    text: str                # config file contents
    expect: int              # documented exit code
    defect: Optional[str] = None     # known defect this config probes
    signature: Optional[str] = None  # how that defect shows: "exit2", "traceback"


@dataclass
class CliResult:
    code: int
    stderr: str
    artifacts: dict          # file name -> bytes, for exit code 0
    peak_rss_mb: float = 0.0
    slowdown: float = 1.0    # the process's own, from speed.child_slowdown()


def _system_doc(rng, rational):
    name = rng.choice(tuple(AFFINE))
    free = free_weights(rng, name)
    slopes, intercepts = AFFINE[name]
    if rational:
        num = int
        p = [f"{k}/{DENOM}" for k in free]
    else:
        num = float
        p = [k / DENOM for k in free]
    return name, {
        "branches": [{"slope": num(a), "intercept": num(b)}
                     for a, b in zip(slopes, intercepts)],
        "open_set": [num(0), num(1)],
        "p": p,
        "mode": "rational" if rational else "float",
    }


def _params(rng, command, name, rational):
    two = len(AFFINE[name][0]) == 2
    if command == "eval-t":
        size = rng.randint(65, 257) if rational else rng.randint(1025, 4097)
        return {"grid_size": size, "margin": round(rng.uniform(0.1, 0.4), 3)}
    if command == "eval-c":
        if rational:
            return {"order": [1] if two else [1, 0],
                    "grid_size": rng.randint(17, 33), "depth": 40}
        return {"order": [1] if two else [1, 1],
                "grid_size": rng.randint(257, 1025)}
    if command == "spectrum":
        return {"alpha_grid": {"count": rng.randint(201, 801)}}
    if command == "pressure":
        b = round(rng.uniform(4.0, 10.0), 3)
        return {"beta_grid": {"lo": -b, "hi": b,
                              "count": rng.randint(41, 161)}}
    if command == "gap":
        return {"alpha": round(rng.uniform(0.2, 0.9), 4),
                "n_max": rng.randint(20, 40),
                "grid_size": rng.randint(2049, 4097)}
    if command == "exponent":
        return {"betas": sorted(round(rng.uniform(-4, 4), 3)
                                for _ in range(3)),
                "count": rng.randint(8, 16), "seed": rng.randint(0, 999)}
    if command == "conjugacy":
        return {"sample_count": rng.randint(200, 600),
                "seed": rng.randint(0, 999)}
    return {"sample_count": rng.randint(64, 128), "grid_sizes": [513, 1025],
            "seed": rng.randint(0, 999)}


COMMANDS = ("eval-t", "eval-c", "spectrum", "pressure", "gap", "exponent",
            "conjugacy", "report")


def _malformed(rng):
    """(handled as documented, catalogued breaks), each a list of jobs."""
    _, sysdoc = _system_doc(rng, False)

    def doc(command, params, system=sysdoc, **extra):
        return json.dumps(dict(system=system, command=command, params=params,
                               **extra))

    ok = [
        CliJob("bad-command", doc("evalt", {}), 1),
        CliJob("bad-param", doc("eval-t", {"grid_sise": 129}), 1),
        CliJob("bad-json", doc("eval-t", {})[:-7], 1),
        CliJob("no-order", doc("eval-c", {"grid_size": 65}), 1),
        CliJob("bad-key", doc("eval-t", {}, outt="x"), 1),
    ]
    slope = dict(sysdoc, branches=[dict(b) for b in sysdoc["branches"]])
    slope["branches"][0]["slope"] = "steep"
    broken = [
        CliJob("grid-size-x", doc("eval-t", {"grid_size": "x"}), 1,
               "cli.grid_size_exit_code", "exit2"),
        CliJob("null-system", doc("eval-t", {}, system=None), 1,
               "cli.malformed_system_traceback", "traceback"),
        CliJob("text-slope", doc("eval-t", {}, system=slope), 1,
               "cli.malformed_system_traceback", "traceback"),
        CliJob("scalar-branches", doc("eval-t", {},
                                      system=dict(sysdoc, branches=5)), 1,
               "cli.malformed_system_traceback", "traceback"),
    ]
    return ok, broken


def build_rounds(seed: int) -> list:
    """The cli job list: rounds drawn with repeats from one seeded pool."""
    rng = random.Random(f"holderlab-bench/cli/{seed}")
    pool = {}
    for command in COMMANDS:
        for rational in (False, True):
            name, sysdoc = _system_doc(rng, rational)
            text = json.dumps({"system": sysdoc, "command": command,
                               "params": _params(rng, command, name, rational)})
            pool[command, rational] = CliJob(
                f"{command}-{'rational' if rational else 'float'}", text, 0)
    ok, broken = _malformed(rng)
    rounds = []
    for r in range(ROUND_COUNT):
        # rounds 2k and 2k+1 run the same configs, cold then warm; half the
        # commands in rational mode, alternating with k
        jobs = [pool[command, (c + r // 2) % 2 == 1]
                for c, command in enumerate(COMMANDS)]
        jobs += [rng.choice(ok), rng.choice(broken)]
        rng.shuffle(jobs)
        rounds.append(jobs)
    return rounds


# ---------------------------------------------------------------------------
# running


def _artifacts(out_dir: Path) -> dict:
    if not out_dir.is_dir():
        return {}
    return {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())
            if f.is_file()}


# `python -m holderlab.cli` that, on exit, writes its own peak resident set
# (VmHWM) and its slowdown to the file named by PERFBENCH_EXIT.  The kernel's
# ru_maxrss of a child includes the spawning process's memory, so it cannot
# be used.
_CLI_MAIN = """\
import atexit, json, os, runpy
def _report():
    with open("/proc/self/status") as fh:
        kb = next(l.split()[1] for l in fh if l.startswith("VmHWM:"))
    from perfbench.speed import child_slowdown
    with open(os.environ["PERFBENCH_EXIT"], "w") as fh:
        json.dump({"peak_kb": int(kb), "slowdown": child_slowdown()}, fh)
atexit.register(_report)
runpy.run_module("holderlab.cli", run_name="__main__", alter_sys=True)
"""


def run_subprocess(job: CliJob, work: Path, cache: Path):
    """Run one config as a fresh interpreter; return (seconds, result)."""
    work.mkdir(parents=True)
    cfg = work / "config.json"
    cfg.write_text(job.text)
    report = work / "exit.json"
    env = dict(os.environ, HOLDERLAB_CACHE=str(cache),
               PERFBENCH_EXIT=str(report),
               PYTHONPATH=os.pathsep.join(
                   [str(SRC), str(ROOT)]
                   + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    cmd = [sys.executable, "-c", _CLI_MAIN, "--config", str(cfg),
           "--out", str(work / "out"), "--threads", "1"]
    with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=out,
                              stderr=err, env=env, timeout=120)
        seconds = time.perf_counter() - start
    # a process killed before its exit handler ran reports nothing
    exit_report = json.loads(report.read_text()) if report.exists() else {}
    return seconds, CliResult(
        code=proc.returncode,
        stderr=(work / "stderr").read_text(errors="replace"),
        artifacts=_artifacts(work / "out"),
        peak_rss_mb=exit_report.get("peak_kb", 0) / 1024.0,
        slowdown=exit_report.get("slowdown", 1.0))


def run_in_process(job: CliJob, work: Path, cache: Path, main):
    """Run one config through `main` in this interpreter (the traced run)."""
    work.mkdir(parents=True)
    cfg = work / "config.json"
    cfg.write_text(job.text)
    saved = os.environ.get("HOLDERLAB_CACHE")
    os.environ["HOLDERLAB_CACHE"] = str(cache)
    stderr = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            code = main(["--config", str(cfg), "--out", str(work / "out"),
                         "--threads", "1"])
    except Exception as exc:  # what the interpreter would print and exit 1 on
        code = 1
        stderr.write("Traceback (most recent call last):\n"
                     f"{type(exc).__name__}: {exc}\n")
    finally:
        seconds = time.perf_counter() - start
        if saved is None:
            del os.environ["HOLDERLAB_CACHE"]
        else:
            os.environ["HOLDERLAB_CACHE"] = saved
    return seconds, CliResult(code=code, stderr=stderr.getvalue(),
                              artifacts=_artifacts(work / "out"))


# ---------------------------------------------------------------------------
# oracle


def check(job: CliJob, result: CliResult, first: dict) -> Optional[Failure]:
    """Exit code as documented, no traceback, and artifacts of a repeated
    config byte-identical to its first (cold-cache) run.  `first` maps config
    keys to the artifacts of their first run and is filled here."""
    traceback = "Traceback" in result.stderr
    if result.code != job.expect or traceback:
        what = "traceback" if traceback else f"exit{result.code}"
        reason = f"{job.key}: exit {result.code}, documented {job.expect}" + \
            (", traceback on stderr" if traceback else "")
        return Failure(reason, job.defect if what == job.signature else None)
    if job.expect != 0:
        return None
    manifest = json.loads(result.artifacts.get("manifest.json", b"{}") or b"{}")
    listed = [o["file"] for o in manifest.get("outputs", [])]
    missing = [f for f in listed if f not in result.artifacts]
    if not listed or missing:
        return Failure(f"{job.key}: manifest lists {listed}, missing {missing}")
    if job.key not in first:
        first[job.key] = result.artifacts
    elif result.artifacts != first[job.key]:
        return Failure(f"{job.key}: repeated run differs from its first run")
    return None
