"""Machine-speed probe for the end-to-end timings.

On a shared 2-core virtual machine the speed of the same code drifts by
+-30% over seconds (host contention; CPU time drifts as much as wall time),
which is larger than any bound a regression check could use.  The probe
runs a fixed reference kernel between jobs, at most every EVERY_S seconds,
and rescales each job's time to a machine on which the kernel runs at its
nominal speed:

    normalized = measured / (reference slowdown around the job)

The kernel has two halves: interpreter-bound Python with small numpy calls,
and a streaming pass over two 8 MB arrays.  The slowdown is a weighted mean
of the two halves' times over their nominal times, averaged over the probes
near the job.  The weight of the streaming half is set per workload
(STREAM_SHARE): the mix of grid's large-array jobs follows the plain mean,
while the interpreter-bound jobs of pointwise and spectrum follow the Python
half alone.  Over ten seeds on a 2-core Xeon whose speed moved by 1.7x, the
quartile spread of jobs_per_s was, rescaled by the Python half, the mean
and the streaming half: pointwise 9%, 14%, 38%; spectrum 6%, 8%, 13%; grid
18%, 7%, 8%.

Child processes (the setup interpreters and the cli jobs) may run on the
other core, which this process's probes do not see.  Each child therefore
times the Python half itself, CHILD_REPEATS times once its work is done
(`child_slowdown()`), and its time is divided by that slowdown.  One child's
timing is noisy, but the medians a run reports follow the machine's drift.

The kernel is the benchmark's own code, so a change to holderlab moves the
normalized times as it moves the measured ones.  Raw times are kept in the
details file.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# median kernel times inside benchmark runs on the 2-core Xeon the bounds
# were set on
PYTHON_NOMINAL_S = 0.0022
STREAM_NOMINAL_S = 0.0022
# probes this close to a job set its scale: speed drifts over about a second
REACH_S = 0.5
EVERY_S = 0.2  # seconds between probes at most
STREAM_SHARE = {"grid": 0.5, "pointwise": 0.0, "spectrum": 0.0}
CHILD_REPEATS = 5


def python_kernel() -> float:
    """Seconds for the interpreter-bound half of the reference kernel."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += (i % 7) * 0.5
    a = np.arange(2000.0)
    for _ in range(50):
        a = np.sqrt(a + 1.0)
    return time.perf_counter() - start


def child_slowdown() -> float:
    """The calling process's slowdown against the nominal machine: the
    median of CHILD_REPEATS Python-half runs over PYTHON_NOMINAL_S."""
    return statistics.median(python_kernel() for _ in range(CHILD_REPEATS)) \
        / PYTHON_NOMINAL_S


class SpeedProbe:
    def __init__(self, workload: str):
        self.stream_share = STREAM_SHARE[workload]
        self.times = []          # end of each probe, increasing
        self.slowdowns = []
        self.samples = []        # (python seconds, stream seconds)
        self._src = np.ones(1 << 20)
        self._dst = np.empty_like(self._src)

    def _kernel(self):
        py = python_kernel()
        # the first pass brings the arrays back into cache after the job
        # evicted them; the second, timed, then measures the machine and
        # not what the job left behind
        for _ in range(2):
            mid = time.perf_counter()
            np.multiply(self._src, 1.0001, out=self._dst)
            np.add(self._dst, self._src, out=self._dst)
            float(self._dst.sum())
        return py, time.perf_counter() - mid

    def probe(self, force: bool = False):
        if force or not self.times or \
                time.perf_counter() - self.times[-1] >= EVERY_S:
            py, stream = self._kernel()
            self.times.append(time.perf_counter())
            self.samples.append((py, stream))
            share = self.stream_share
            self.slowdowns.append((1.0 - share) * py / PYTHON_NOMINAL_S
                                  + share * stream / STREAM_NOMINAL_S)

    def scale(self, start: float, end: float) -> float:
        """1 / mean slowdown of the probes from REACH_S before `start` to
        REACH_S after `end`, and at least of the probes just before and
        just after the job."""
        i = min(bisect.bisect_left(self.times, start - REACH_S),
                bisect.bisect_right(self.times, start) - 1)
        j = max(bisect.bisect_right(self.times, end + REACH_S),
                bisect.bisect_left(self.times, end) + 1)
        near = self.slowdowns[max(i, 0):j]
        return len(near) / sum(near)
