"""Machine-speed calibration for the benchmark's timings.

The machine this benchmark was tuned on (two virtual cores on a shared
host) runs the same pure-Python code up to 1.5x faster or slower from
one second to the next, and the verifier speeds up and slows down with
it: over a minute, the time of one verify and the time of a fixed
kernel sampled right before and after it correlate at 0.7 to 0.85.  A
run therefore brackets its timed operations with calls of a fixed
pure-Python kernel and reports each operation as

    measured seconds * REFERENCE_S / kernel seconds around it

that is, as seconds on a machine where one kernel call takes
:data:`REFERENCE_S`.  The kernel runs no program code and allocates no
containers, so a change to the program moves the reported times and
leaves the kernel alone.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: Kernel duration the reported seconds are scaled to: the median on
#: the tuning machine.
REFERENCE_S = 0.0033

#: Samples this close to an operation also count towards its kernel
#: time: one kernel call is noisy, and a cache hit is shorter than one.
WINDOW_S = 0.15

_TABLE = tuple(range(1024))


def kernel():
    """One calibration call: integer arithmetic and table reads, no
    container growth, so its speed does not depend on what the process
    allocated before.  Returns a value so nothing is optimized away."""
    table = _TABLE
    acc = 0
    x = 12345
    for _ in range(10_000):
        x = (x * 1103515245 + 12345) & 0x3FFFFFFF
        acc ^= table[x & 1023] + (x >> 7)
    return acc


class Calibration:
    """Timestamped kernel samples of one phase of a run."""

    def __init__(self):
        self._times = []        # perf_counter() at the end of each sample
        self._seconds = []      # kernel seconds of each sample
        kernel()  # the first call in a process pays for its warm-up

    def sample(self, calls=1, min_gap=0.0):
        """Take one sample (the median of ``calls`` kernel calls), unless
        the last one ended less than ``min_gap`` seconds ago."""
        now = time.perf_counter()
        if self._times and now - self._times[-1] < min_gap:
            return
        durations = []
        for _ in range(calls):
            start = time.perf_counter()
            kernel()
            durations.append(time.perf_counter() - start)
        self._times.append(time.perf_counter())
        self._seconds.append(statistics.median(durations))

    def _around(self, start, end):
        """Median kernel seconds of the samples within
        :data:`WINDOW_S` of the operation, always including the last
        sample before ``start`` and the first after ``end``."""
        times = self._times
        first = min(bisect.bisect_left(times, start - WINDOW_S),
                    bisect.bisect_right(times, start) - 1)
        last = max(bisect.bisect_right(times, end + WINDOW_S),
                   bisect.bisect_left(times, end) + 1)
        near = self._seconds[max(first, 0):last]
        return statistics.median(near)

    def scale(self, start, end):
        """Reference seconds of an operation timed ``start`` to ``end``
        (``time.perf_counter`` readings)."""
        return (end - start) * REFERENCE_S / self._around(start, end)

    def factor(self):
        """Phase-wide conversion to reference seconds, for totals that
        are not single timed operations (the per-layer seconds)."""
        return REFERENCE_S / statistics.median(self._seconds)
