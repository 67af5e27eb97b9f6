"""Operation times scaled to a reference machine speed.

On a shared machine the speed of one CPU can halve within a minute and
recover, and CPU time tracks wall time, so raw times from runs a minute
apart disagree by more than any useful bound. The benchmark therefore runs
a fixed pure-Python kernel, which does not touch the program, between
operations (at most every CAL_INTERVAL_S of operation time) and scales each
operation's time by KERNEL_NOMINAL_S over the kernel time measured around
it. A reported time is the time the operation would take on a machine
where the kernel takes KERNEL_NOMINAL_S; the run's record keeps the raw
times and the kernel times next to them.
"""
from __future__ import annotations

import statistics
import time
from math import ceil, isqrt

KERNEL_NOMINAL_S = 0.5e-3
KERNEL_STEPS = 1500
CAL_INTERVAL_S = 0.02


def kernel() -> int:
    """Integer arithmetic, square roots and reductions, like the program."""
    x, s = 12345678901234567, 0
    for i in range(1, KERNEL_STEPS):
        x = (x * 6364136223846793005 + i) % (1 << 64)
        s += isqrt(x) % 7
    return s


def kernel_seconds() -> float:
    """Median of three timings of the kernel."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class Scaler:
    """Collects raw operation times, each with a tag, and scales each batch
    by the kernel times measured just before and just after it."""

    def __init__(self):
        self.k_prev = kernel_seconds()
        self.kernel_samples = [self.k_prev]
        self.pending: list[tuple[float, object]] = []
        self.pending_s = 0.0

    def add(self, raw_s: float, tag: object) -> bool:
        """Record one time; True when a batch is due for scaling."""
        self.pending.append((raw_s, tag))
        self.pending_s += raw_s
        return self.pending_s >= CAL_INTERVAL_S

    def flush(self) -> list[tuple[float, object]]:
        """The pending (time, tag) pairs, scaled, in the order added."""
        if not self.pending:
            return []
        k_next = kernel_seconds()
        self.kernel_samples.append(k_next)
        factor = KERNEL_NOMINAL_S / ((self.k_prev + k_next) / 2)
        self.k_prev = k_next
        out = [(t * factor, tag) for t, tag in self.pending]
        self.pending, self.pending_s = [], 0.0
        return out


def percentile(sorted_values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it;
    (0.0, 0) for no samples."""
    if not sorted_values:
        return 0.0, 0
    k = max(1, ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1], len(sorted_values) - k
