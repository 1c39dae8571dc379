"""How fast the host runs at the moment, from a fixed reference kernel.

On a shared host the same CPU-bound work runs at very different speeds
from one minute to the next: on the 2-vCPU VM the bounds were set on, one
fixed 210-system sweep pass ranged from ~360 to ~700 systems/s over eight
minutes, and no statistic over the passes of one run hides that.  It is
the host, not the program, and it moves every CPU-bound figure of a run
together.

The kernel below shares no code with ``repro``: response-time fixed points
of fixed task sets with release offsets, in plain Python (float
arithmetic, ``fmod``, generator sums), the kind of work the analysis
does.  A run times it on each of its CPUs between its timed steps; the
mean of those times over :data:`REFERENCE_S` is the run's *slowdown*, and
the CPU-bound figures are referred to the reference speed by it: rates are
multiplied by it, times divided.  A change to the program moves the
figures and not the kernel, so it shows in full; a slow minute of the
host moves both and cancels.

The mean, not the median: a kernel call runs either fast or ~1.5x slower,
depending on the moment, and a pass of the workload averages over both.
The mean of the kernel times moves with the share of slow moments as the
workload does; their median jumps from one mode to the other.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import time

#: The kernel's mean time on the reference host (the 2-vCPU VM the bounds
#: were set on); a referred figure reads as it would there.
REFERENCE_S = 0.040


def _task_sets() -> list[tuple[tuple[float, float, float], ...]]:
    """40 fixed sets of 6 (cost, period, phase) tasks, utilization ~0.6,
    in rate-monotonic priority order."""
    rng = random.Random(20061024)
    sets = []
    for _ in range(40):
        periods = sorted(
            rng.choice((10.0, 20.0, 25.0, 40.0, 50.0, 100.0, 200.0))
            * rng.uniform(0.9, 1.1)
            for _ in range(6)
        )
        sets.append(tuple(
            (rng.uniform(0.06, 0.14) * period, period,
             rng.uniform(0.0, period))
            for period in periods
        ))
    return sets


TASK_SETS = _task_sets()

#: Passes over :data:`TASK_SETS` in one kernel call (~40 ms).
KERNEL_PASSES = 75

#: Seconds of the run's own work per kernel call on each CPU.  One call's
#: time varies by ~25% with the moment, so a run needs dozens of calls,
#: spread over it, for a mean good to a few per cent; the kernel takes
#: about a ninth of the run.
SAMPLE_EVERY_S = 0.6


def _response_times(tasks) -> list[float]:
    """Each task's first response time when every higher-priority task is
    released at its phase relative to the task's own release."""
    out = []
    for i, (cost, _period, phase) in enumerate(tasks):
        offsets = [
            (c, t, math.fmod(p - phase, t) % t) for c, t, p in tasks[:i]
        ]
        w = cost
        while True:
            nxt = cost + sum(
                math.ceil((w - o) / t) * c for c, t, o in offsets if w > o
            )
            if nxt == w:
                break
            w = nxt
        out.append(w)
    return out


def kernel() -> float:
    total = 0.0
    for _ in range(KERNEL_PASSES):
        for tasks in TASK_SETS:
            total += sum(_response_times(tasks))
    return total


class HostSpeed:
    """Kernel times taken over one run, on each of its CPUs in turn."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.times: list[float] = []
        self._last: float | None = None

    def step(self) -> None:
        """Sample between two timed steps: once per :data:`SAMPLE_EVERY_S`
        seconds since the previous call, and at least once."""
        rounds = 1
        if self._last is not None:
            elapsed = time.perf_counter() - self._last
            rounds = max(1, round(elapsed / SAMPLE_EVERY_S))
        self.sample(rounds)
        self._last = time.perf_counter()

    def sample(self, rounds: int = 1) -> None:
        """Time the kernel *rounds* times on each CPU, the CPUs in turn;
        the affinity is restored."""
        mask = os.sched_getaffinity(0)
        try:
            for _ in range(rounds):
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    t0 = time.perf_counter()
                    kernel()
                    self.times.append(time.perf_counter() - t0)
        finally:
            os.sched_setaffinity(0, mask)

    def slowdown(self) -> float:
        """Mean kernel time over :data:`REFERENCE_S` (> 1: slower)."""
        return statistics.fmean(self.times) / REFERENCE_S
