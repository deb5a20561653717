"""Machine-speed calibration of the timed end-to-end metrics.

The machine this benchmark was built on is shared.  The speed of the same
Python code drifts by +-15% over tens of seconds: a fixed loop, timed
every 30 ms for 90 s, gave 15-second block medians from 24.9 to 31.2 ms.
So raw timings of runs made minutes apart spread by 15-25% between their
quartiles, wider than any useful regression bound.  The drift moves a
fixed pure-Python kernel and the library alike.  So the benchmark runs
the kernel between operations (at most every INTERVAL_S) and rescales
each operation's time to the reference speed:

    seconds at reference speed = raw seconds * REFERENCE_S / kernel seconds

where the kernel seconds are the median of the samples taken around the
operation (see ``SpeedLog.factor``).  Raw values are reported next to
the rescaled ones.  The kernel is benchmark code, so a change to the
library moves only the operation times, never the scale.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from time import perf_counter

# Median kernel time on the reference machine (2 vCPU Xeon at 2.1 GHz,
# Python 3.11.7); rescaled values read as seconds on that machine.
REFERENCE_S = 0.030
INTERVAL_S = 0.25
WINDOW_S = 1.0


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def kernel() -> int:
    """Fixed work in the library's idiom: many small objects and tuples,
    clamped-difference grids, grouped in a dict.

    An allocation-heavy kernel tracks the library's slowdowns much better
    than a tight arithmetic loop: against the degree-5 sweep, 10-second
    block medians spread by 0.046 rescaled with this kernel and by 0.094
    with a dict-and-modulo loop (0.13 raw).
    """
    groups: dict = {}
    kept = []
    for i in range(3000):
        a = (0, i % 5, i % 7, i % 11)
        b = tuple(x + 1 + i % 3 for x in a)
        kept.append(_Pair(a, b))
        grid = tuple(tuple(max(y - x, 0) for y in b) for x in a)
        groups.setdefault(grid, []).append(kept[-1])
    return len(groups)


class SpeedLog:
    """Kernel timings taken between operations of one run."""

    def __init__(self, clock=perf_counter, run=kernel):
        self.clock = clock
        self.run = run
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        # with the collector off, the kernel's time does not depend on how
        # many objects the run happens to hold
        gc.disable()
        try:
            start = self.clock()
            self.run()
            end = self.clock()
        finally:
            gc.enable()
        self.starts.append(start)
        self.ends.append(end)
        self.seconds.append(end - start)

    def due(self) -> bool:
        return not self.ends or self.clock() - self.ends[-1] >= INTERVAL_S

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the kernel time around the interval [start, end].

        The kernel time is the median of the samples taken within WINDOW_S
        of the interval, and always includes the last sample before it and
        the first after it, so one preempted sample cannot set the scale.
        """
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.starts, end)
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        picked = set(range(lo, hi)) | {i for i in (before, after) if 0 <= i < len(self.seconds)}
        if not picked:
            raise ValueError("no speed sample taken")
        return REFERENCE_S / statistics.median(self.seconds[i] for i in picked)
