"""The kind filter of the opt-in per-kind timing script
`tests/kind_timing.py`, on stand-in jobs: no package is copied or run."""

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
    assert [key for key, _, _ in rows] == [("a", "dyadic"), ("a", "dyadic"),
                                           ("c", "dyadic")]
    # each job runs twice on each side, back to back
    assert ran == ["a"] * 8 + ["c"] * 4
    rows = kind_timing.job_times(workloads, ("old", "new"), "grid", [1], set())
    assert [key[0] for key, _, _ in rows] == ["a", "b", "a", "c"]
