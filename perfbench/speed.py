"""Host speed reference: a fixed kernel timed between requests.

The host the benchmark runs on is shared, and its speed drifts by tens of
percent over seconds (frequency, cache and core sharing with other
tenants); process CPU time drifts the same way.  No statistic taken over the
requests alone separates that drift from the program.  So the client times
this fixed kernel, which uses none of ``vncap``, every ``EVERY_S`` seconds
between requests, and scales each request's latency by
``NOMINAL_S / (kernel time near that request)``.  The result reads as the
latency on a host where the kernel takes ``NOMINAL_S``; a change to the
program moves it, a change in the host's speed mostly does not.

The kernel mixes what the requests spend their time on: interpreted Python
with float arithmetic and string formatting, small numpy calls (a 4x4
``eigvalsh``, elementwise logs) and big-integer binomial sums.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

EVERY_S = 0.1  # time between two kernel samples
WINDOW_S = 0.3  # kernel samples within this distance of a request set its scale
NOMINAL_S = 1.5e-3  # median kernel time on the host the benchmark was tuned on (2 vCPUs, Python 3.11, numpy 2.4)

_H = np.array([[2.0, 0.5, 0.1, 0.0], [0.5, 1.0, 0.2, 0.1], [0.1, 0.2, 0.5, 0.3], [0.0, 0.1, 0.3, 0.25]])


def kernel() -> float:
    """Fixed work of a few milliseconds; returns a value so nothing is skipped."""
    acc = 0.0
    text = []
    for i in range(40):
        w = np.linalg.eigvalsh(_H * (1.0 + i / 40.0))
        w = w / w.sum()
        acc += float(-(w * np.log2(w)).sum())
        for j in range(20):
            x = (i * 20 + j) / 800.0 + 1e-3
            acc += -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x + 1e-12)
        text.append(f"{acc:.12g},{i}")
    volume = sum(math.comb(600, k) * 3**k for k in range(60))
    return acc + len(",".join(text)) + volume.bit_length()


class SpeedProbe:
    """Kernel samples along the run, and the latency scale they imply."""

    def __init__(self) -> None:
        self.times: list[float] = []  # midpoints, perf_counter seconds
        self.durations: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.times.append((start + end) / 2.0)
        self.durations.append(end - start)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def kernel_s(self, at: float) -> float:
        """Median kernel time of the samples within WINDOW_S of ``at`` (at least the nearest two)."""
        lo = bisect.bisect_left(self.times, at - WINDOW_S)
        hi = bisect.bisect_right(self.times, at + WINDOW_S)
        if hi - lo < 2:
            mid = bisect.bisect_left(self.times, at)
            lo, hi = max(0, mid - 1), min(len(self.times), mid + 1)
        return statistics.median(self.durations[lo:hi])

    def scale(self, at: float) -> float:
        return NOMINAL_S / self.kernel_s(at)
