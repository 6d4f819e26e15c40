"""The kind filter and the size octaves of the opt-in per-kind timing
script `tests/kind_timing.py`, on stand-in jobs: no package is copied or
run."""

from types import SimpleNamespace

import kind_timing


def test_kind_filter_times_only_those_kinds():
    jobs = [SimpleNamespace(kind=kind, params={"system": "dyadic"})
            for kind in ("a", "b", "a", "c")]
    ran = []
    workloads = SimpleNamespace(
        build_rounds=lambda workload, seed: [jobs],
        execute=lambda job, stats: ran.append(job.kind),
        EvaluateStats=lambda: None, hl=None)
    rows = kind_timing.job_times(workloads, ("old", "new"), "grid", [1],
                                 {"a", "c"})
    assert [key for key, _, _ in rows] == [("a", "dyadic", None),
                                           ("a", "dyadic", None),
                                           ("c", "dyadic", None)]
    # each job runs twice on each side, back to back
    assert ran == ["a"] * 8 + ["c"] * 4
    rows = kind_timing.job_times(workloads, ("old", "new"), "grid", [1], set())
    assert [key[0] for key, _, _ in rows] == ["a", "b", "a", "c"]


def test_jobs_group_by_size_octave(capsys):
    # n, else grid_size, in 2^k .. 2^(k+1) - 1 is octave k
    assert [kind_timing.octave(params) for params in (
        {"n": 1024}, {"n": 2047}, {"n": 1025, "grid_size": 4}, {"n": 2048},
        {"grid_size": 8193}, {"count": 5})] == [10, 10, 10, 11, 13, None]
    rows = [(("a", "dyadic", 10), 1.0, 2.0), (("a", "cantor", 10), 1.0, 1.0),
            (("a", "dyadic", 9), 2.0, 1.0), (("b", "-", None), 1.0, 1.0)]
    kind_timing.report(rows, 90)
    lines = capsys.readouterr().out.splitlines()
    octaves = lines[lines.index(next(x for x in lines if "octave" in x)) + 1:]
    # numeric order, and a job without a size is in no octave
    assert [line.split()[:3] for line in octaves[:2]] == [
        ["a", "2^9", "1"], ["a", "2^10", "2"]]
    assert octaves[1].split()[-1] == "1.500"
    assert octaves[2].startswith("total")
