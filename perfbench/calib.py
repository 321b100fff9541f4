"""Machine-speed calibration for a shared, noisy host.

On a host whose cores are shared with other tenants, the speed of pure Python
code drifts by 20-30% over seconds to minutes, for wall time and CPU time
alike.  The benchmark therefore interleaves a fixed calibration loop (about
2.5 ms of integer elimination on Python lists, see `reference`) with the ops,
and scales each op's wall time by NOMINAL_S / (the loop's local duration).
A reported "ms" is a wall-time millisecond at the speed at which the
calibration loop takes exactly NOMINAL_S.  Raw wall times are reported
alongside on the summary line of `run.py`.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

NOMINAL_S = 0.0025
PROBE_INTERVAL_S = 0.1
WINDOW_S = 0.2


def reference():
    """Fixed interpreter work, independent of the program under test: a
    fraction-free elimination on a 24 x 48 list-of-lists integer matrix, the
    same kind of work as the exact algebra it calibrates."""
    n = 24
    rows = [[(i * 7 + j * 3) % 11 - 5 for j in range(2 * n)] for i in range(n)]
    for k in range(n - 1):
        piv = rows[k][k] or 1
        for i in range(k + 1, n):
            f = rows[i][k]
            rows[i] = [a * piv - f * b for a, b in zip(rows[i], rows[k])]
        rows = [list(tuple(r)) for r in rows]
    return rows[-1][-1]


def probe():
    start = perf_counter()
    reference()
    return perf_counter() - start


class SpeedTrack:
    """Calibration probes taken at most every PROBE_INTERVAL_S between ops."""

    def __init__(self):
        self.times = []
        self.durations = []
        self._last = float("-inf")

    def tick(self):
        now = perf_counter()
        if now - self._last >= PROBE_INTERVAL_S:
            d = probe()
            self.times.append(now + d / 2)
            self.durations.append(d)
            self._last = perf_counter()

    def factor(self, start, end):
        """NOMINAL_S over the median probe within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.durations[lo:hi]
        if not near:
            i = min(bisect.bisect_left(self.times, start), len(self.times) - 1)
            near = [self.durations[i]]
        return NOMINAL_S / statistics.median(near)
