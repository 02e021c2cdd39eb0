"""The reference kernel: a fixed piece of exact arithmetic that does not use
momix, timed alongside the questions to measure how fast the host runs
while they do.

The benchmark shares a few cores of a host with other tenants, and the
host's speed swings by a third from one half-minute to the next: process
CPU time grows with wall time, so a slowdown is the core running slower,
not the process waiting.  Fixed-input questions took 30 % longer in one
run than in the next.  Those swings slow the kernel and momix alike, so a
latency divided by the kernel's mean time over the same run repeats from
run to run where the latency itself does not.  Every time the benchmark
reports is such a ratio multiplied by REFERENCE_S: seconds at the speed
at which the kernel takes REFERENCE_S.

The kernel is `Fraction` Gauss-Jordan elimination, the arithmetic that
dominates momix's exact solves and LPs.  Means, not medians or minima: a
slowdown stretches a short kernel sample and a long question alike only
on average.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# the kernel's mean time on a quiet 2-vCPU host (Python 3.11)
REFERENCE_S = 0.008
# the least time between two kernel samples in a run of questions
EVERY_S = 0.1
# kernel samples taken by a set-up-only process after READY
SETUP_SAMPLES = 30


def kernel(n: int = 12):
    """Gauss-Jordan elimination of a fixed n x (n+1) rational matrix."""
    m = [[Fraction((i * 7 + j * 3) % 11 + 1, (i * j) % 5 + 1) for j in range(n + 1)]
         for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m


class Pace:
    """Kernel samples spread over a run: `tick()` between timed calls takes
    one when EVERY_S has passed since the last."""

    def __init__(self):
        self.samples = []
        self._last = None

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def tick(self):
        if self._last is None or time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def mean_s(self) -> float:
        return statistics.mean(self.samples)

    def scale(self) -> float:
        """Multiplies a measured time into seconds at reference speed."""
        return REFERENCE_S / self.mean_s()
