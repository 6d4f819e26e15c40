"""Output digests: one SHA-256 per job of a benchmark workload, so that two
versions of the code can be compared bit for bit.

Pytest does not collect this file (its name does not match `test_*.py`).
Run it from a checkout, once per version, and compare the listings:

    python tests/output_digest.py grid 1 2 > grid.txt
    diff old/grid.txt new/grid.txt

For each seed in turn it runs every job of
`perfbench.workloads.build_rounds(workload, seed)` in order, against the
checkout's own `src/`, and prints one line per job: its round, its index in
the round, its kind and the digest of its output.  The `cli` workload runs
every config of `perfbench.clijobs.build_rounds(seed)` in this process, by
`cli_digests`, and its kind is the config's key.  A last line, `listing`
and the SHA-256 of all the job lines before it (newlines included),
compares whole runs at a glance; running the seeds one at a time and
hashing their job lines concatenated in seed order gives the same value.
The digest feeds a float by `float.hex()`, an array by its dtype, its
shape and its bytes (an object array element by element), a dataclass by
its type name and then field by field, a list, tuple or dict by its length
and then item by item, and anything else by its type name and `repr`.  A
job that raises is digested as its exception's type name and message.

    python tests/output_digest.py --check

runs grid, pointwise, spectrum and cli over seeds 1-4, compares each
listing with the one recorded in `LISTINGS`, and exits 1 naming each
workload that differs (about 45 s on one core).  The hashes can depend on the numpy
build; on a mismatch, diff the listings of two checkouts.  A change that
alters outputs on purpose records the new listings here.

    python tests/output_digest.py --compare old/grid.txt new/grid.txt

reads two listings of one workload, named after it, and prints per kind
the number of jobs whose digests differ out of the kind's jobs, `ok` for a
kind that keeps every digest; it exits 1 when any job differs, and 2 when
the two listings do not hold the same jobs in the same order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import clijobs  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    EvaluateStats, build_rounds, execute)

# the listing of each workload over the seeds CHECK_SEEDS
CHECK_SEEDS = (1, 2, 3, 4)
LISTINGS = {
    "grid": "c2acfe90c3eff3f330d953b880e91fd3fe23c364b24a177ab50fb0f3ec05aac5",
    "pointwise":
        "4b31ed92133ffe11f91110d520475becd670896a3c050357ceef3914875a23ee",
    "spectrum":
        "143d644bf850e08c0332792f7a028723bf181f2ee5c9763c739f3dae480be636",
    "cli": "302424d44d8129235b7e912b66902c1325ad0f5ef8cc72180c89ba0e0d28f9f2",
}


def feed(h, obj) -> None:
    """Feed obj's bits into the hash h."""
    if isinstance(obj, np.generic):
        obj = np.asarray(obj)
    if isinstance(obj, float):
        h.update(b"float " + obj.hex().encode())
    elif isinstance(obj, np.ndarray):
        h.update(f"array {obj.dtype.str} {obj.shape}".encode())
        if obj.dtype == object:
            for item in obj.ravel().tolist():
                feed(h, item)
        else:
            h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(f"dataclass {type(obj).__name__}".encode())
        for field in dataclasses.fields(obj):
            h.update(field.name.encode())
            feed(h, getattr(obj, field.name))
    elif isinstance(obj, (list, tuple)):
        h.update(f"{type(obj).__name__} {len(obj)}".encode())
        for item in obj:
            feed(h, item)
    elif isinstance(obj, dict):
        h.update(f"dict {len(obj)}".encode())
        for key, value in obj.items():
            feed(h, key)
            feed(h, value)
    else:
        h.update(f"{type(obj).__name__} {obj!r}".encode())


def digests(workload: str, seed: int):
    """(round, index, kind, hex digest) of every job, in order."""
    if workload == "cli":
        yield from cli_digests(seed)
        return
    for r, jobs in enumerate(build_rounds(workload, seed)):
        for i, job in enumerate(jobs):
            try:
                out = execute(job, EvaluateStats())
            except Exception as exc:  # noqa: BLE001 - a raise is an output
                out = ("raised", type(exc).__name__, str(exc))
            h = hashlib.sha256()
            feed(h, out)
            yield r, i, job.kind, h.hexdigest()


def cli_digests(seed: int):
    """(round, index, config key, hex digest) of every `cli` job, in order:
    each runs through `clijobs.run_in_process` with `holderlab.cli.main`
    in a temporary directory whose cache is empty at the seed's start, and
    its digest feeds the exit code and every artifact's name and bytes
    (`manifest.json` included), not its stderr."""
    from holderlab.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for r, jobs in enumerate(clijobs.build_rounds(seed)):
            for i, job in enumerate(jobs):
                _, result = clijobs.run_in_process(
                    job, work / f"{r}-{i}", work / "cache", main)
                h = hashlib.sha256()
                feed(h, (result.code, result.artifacts))
                yield r, i, job.key, h.hexdigest()


def listing(workload: str, seeds, out=None) -> str:
    """The hex SHA-256 of the job lines of every seed in turn, each line
    also written to out when given."""
    h = hashlib.sha256()
    for seed in seeds:
        for r, i, kind, digest in digests(workload, int(seed)):
            line = f"{r} {i} {kind} {digest}\n"
            h.update(line.encode())
            if out is not None:
                out.write(line)
    return h.hexdigest()


def check() -> int:
    """0 when every recorded listing is reproduced, else 1, naming each
    workload that differs on stderr."""
    failed = 0
    for workload, want in LISTINGS.items():
        got = listing(workload, CHECK_SEEDS)
        if got == want:
            print(f"{workload} ok")
        else:
            failed = 1
            print(f"{workload} differs: listing {got}, recorded {want}",
                  file=sys.stderr)
    return failed


def compare(old: str, new: str) -> int:
    """Print the changed jobs per (workload, kind) of two listing files of
    one workload, the workload named by the old file's stem; 0 when no job
    changed, 1 when some did, 2 when the files list different jobs."""
    jobs = []
    for path in (old, new):
        lines = Path(path).read_text().splitlines()
        jobs.append([line.split() for line in lines
                     if not line.startswith("listing ")])
    if [j[:3] for j in jobs[0]] != [j[:3] for j in jobs[1]]:
        print(f"{old} and {new} list different jobs", file=sys.stderr)
        return 2
    workload = Path(old).stem
    counts = {}
    for (*job, was), (*_, now) in zip(*jobs):
        changed, total = counts.get(job[2], (0, 0))
        counts[job[2]] = changed + (was != now), total + 1
    for kind, (changed, total) in counts.items():
        print(f"{workload} {kind} "
              + (f"{changed} of {total} jobs differ" if changed else "ok"))
    return 1 if any(changed for changed, _ in counts.values()) else 0


def main(argv) -> int:
    if argv == ["--check"]:
        return check()
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if len(argv) < 2:
        print("usage: output_digest.py WORKLOAD SEED [SEED ...] | --check"
              " | --compare OLD NEW", file=sys.stderr)
        return 2
    print(f"listing {listing(argv[0], argv[1:], sys.stdout)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
