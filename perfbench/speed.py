"""Host-speed normalization of the benchmark's timings.

On the reference host (a 2-vCPU VM sharing its machine), CPU-bound
Python runs in two speed states that alternate many times a second: a
fixed loop takes ≈7 ms in one and ≈12.5 ms in the other, and the share
of slow time drifts over minutes.  The same DCGWO job on Cavlc took
anywhere from 6.3 s to 14 s of wall time, so raw wall-time job times of
four to five seeds per workload spread by 17-28% (IQR / median), about
the largest bound a metric may have.

The state is sampled instead: :class:`SpeedProbe` times a fixed,
program-independent kernel (:func:`kernel`) many times during a timed
region — at optimizer iterations at least ``MIN_INTERVAL_S`` apart,
through the program's own ``RunCallback`` surface, so the samples
spread evenly over a job's time, and around every set-up — and the region's
time is scaled by ``REFERENCE_KERNEL_S / mean(kernel times)``.  The
mean of many short samples estimates the slow share the region ran
under, and both slow down together: on eight runs of one job, raw wall
time ranged 6.35-9.91 s (CV 13%) while the normalized time ranged
5.34-5.70 (CV 2.2%).  Normalized times are *reference seconds*: wall
seconds on a host where the kernel takes exactly ``REFERENCE_KERNEL_S``.
Time spent in the probe itself is excluded.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List

from repro.core.protocol import RunCallback

#: The kernel's time on the reference machine: the scale of normalized
#: times (a round constant, close to the kernel's fast-state time).
REFERENCE_KERNEL_S = 0.001
#: Kernel samples per sampling round inside a job, and the least wall
#: time between two rounds (Table II's greedy methods iterate every few
#: milliseconds; DCGWO every 0.3-0.6 s).  The probe costs ≈1-2% of a job.
SAMPLES_PER_ROUND = 4
MIN_INTERVAL_S = 0.25
#: Kernel samples taken before and after each set-up.
SAMPLES_PER_SETUP = 3


def kernel() -> float:
    """Time one run of a fixed dict-and-hash loop (≈1-2 ms)."""
    start = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(3000):
        key = (i * 2654435761) & 0xFFF
        table[key] = table.get(key, 0) + i
        acc ^= hash((key, i & 7))
    return time.perf_counter() - start


class SpeedProbe(RunCallback):
    """Samples the host's speed around and during a timed region."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Wall time spent sampling (to subtract from the region).
        self.spent = 0.0
        self._last = -math.inf

    def sample(self, count: int) -> None:
        start = time.perf_counter()
        self.samples.extend(kernel() for _ in range(count))
        self.spent += time.perf_counter() - start

    def _round(self) -> None:
        if time.perf_counter() - self._last >= MIN_INTERVAL_S:
            self.sample(SAMPLES_PER_ROUND)
            self._last = time.perf_counter()

    def on_run_start(self, method, total_iterations, state) -> None:
        self._round()

    def on_iteration(self, event) -> None:
        self._round()

    def factor(self) -> float:
        """Scale from wall seconds to reference seconds."""
        return REFERENCE_KERNEL_S / statistics.fmean(self.samples)
