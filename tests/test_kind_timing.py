"""The kind filter, the untimed warm-up, the A/A halves and the size
octaves of the opt-in per-kind timing script `tests/kind_timing.py`, on
stand-in jobs: no package is copied or run."""

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
    assert [key for key, *_ in rows] == [("a", "dyadic", None),
                                           ("a", "dyadic", None),
                                           ("c", "dyadic", None)]
    # one untimed run of each (kind, system) on each side, then each job
    # twice on each side, back to back
    assert ran == ["a"] * 2 + ["c"] * 2 + ["a"] * 8 + ["c"] * 4
    rows = kind_timing.job_times(workloads, ("old", "new"), "grid", [1], set())
    assert [key[0] for key, *_ in rows] == ["a", "b", "a", "c"]


def test_each_kind_and_system_warms_both_copies_before_timing():
    jobs = [SimpleNamespace(kind=kind, params=params, name=i)
            for i, (kind, params) in enumerate([
                ("a", {"system": "dyadic"}), ("a", {"system": "dyadic"}),
                ("a", {"system": "cantor"}), ("b", {"system": "dyadic"}),
                ("b", {"system": "dyadic", "empirical": True})])]
    ran = []
    workloads = SimpleNamespace(
        build_rounds=lambda workload, seed: [jobs[:2], jobs[2:]] if seed == 1
        else [],
        execute=lambda job, stats: ran.append((job.name, workloads.hl)),
        EvaluateStats=lambda: None, hl=None)
    rows = kind_timing.job_times(workloads, ("old", "new"), "grid", [1, 2],
                                 set())
    # the first job of each (kind, system), once on each copy, untimed;
    # a job with an evaluator is a kind of its own
    assert ran[:8] == [(name, side) for name in (0, 2, 3, 4)
                       for side in ("old", "new")]
    # then every job, twice on each copy, in alternating order
    assert ran[8:] == [(name, side) for name in range(5) for side in (
        ("old", "new", "new", "old") if name % 2 == 0
        else ("new", "old", "old", "new"))]
    assert [key for key, *_ in rows] == [
        ("a", "dyadic", None), ("a", "dyadic", None), ("a", "cantor", None),
        ("b", "dyadic", None), ("b/emp", "dyadic", None)]


def test_aa_halves_take_one_run_of_each_copy(monkeypatch):
    # a clock that each run advances by its own duration: the two untimed
    # warm-up runs take 0, and each job's timed runs 1, 2, 4 and 8 units in
    # the order they run
    clock = SimpleNamespace(now=0.0)
    durations = iter([0.0] * 2 + [1.0, 2.0, 4.0, 8.0] * 2)

    def execute(job, stats):
        clock.now += next(durations)

    monkeypatch.setattr(kind_timing.time, "perf_counter", lambda: clock.now)
    jobs = [SimpleNamespace(kind="a", params={"system": "dyadic"})
            for _ in range(2)]
    workloads = SimpleNamespace(
        build_rounds=lambda workload, seed: [jobs], execute=execute,
        EvaluateStats=lambda: None, hl=None)
    rows = kind_timing.job_times(workloads, ("old", "new"), "grid", [1],
                                 set())
    # job 0 runs old, new, new, old: old 1 + 8, new 2 + 4, A (old's first
    # and new's second) 1 + 4, B 8 + 2; job 1 runs new, old, old, new
    assert [times for _, *times in rows] == [[9.0, 6.0, 5.0, 10.0],
                                             [6.0, 9.0, 10.0, 5.0]]


def test_jobs_group_by_size_octave(capsys):
    # n, else grid_size, in 2^k .. 2^(k+1) - 1 is octave k
    assert [kind_timing.octave(params) for params in (
        {"n": 1024}, {"n": 2047}, {"n": 1025, "grid_size": 4}, {"n": 2048},
        {"grid_size": 8193}, {"count": 5})] == [10, 10, 10, 11, 13, None]
    rows = [(("a", "dyadic", 10), 1.0, 2.0, 1.5, 1.5),
            (("a", "cantor", 10), 1.0, 1.0, 0.8, 1.2),
            (("a", "dyadic", 9), 2.0, 1.0, 1.2, 1.8),
            (("b", "-", None), 1.0, 1.0, 1.0, 1.0)]
    kind_timing.report(rows, 90)
    lines = capsys.readouterr().out.splitlines()
    octaves = lines[lines.index(next(x for x in lines if "octave" in x)) + 1:]
    # numeric order, and a job without a size is in no octave
    assert [line.split()[:3] for line in octaves[:2]] == [
        ["a", "2^9", "1"], ["a", "2^10", "2"]]
    # new/old, then the A/A ratio of the summed halves
    # (2.3 / 2.7), and the whole time's (4.5 / 5.5)
    assert octaves[1].split()[-2:] == ["1.500", "0.852"]
    assert octaves[2].split() == ["total", "1.000", "A/A", "0.818"]
    assert [line.split()[0] for line in octaves[2:]] == ["total", "p50",
                                                         "p90"]
