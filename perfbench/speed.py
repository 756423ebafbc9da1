"""Machine-speed reference used to scale measured times.

On a shared machine the same pure-Python work can run at half speed, in
bursts from milliseconds to tens of seconds, while a neighbour loads the core.
The benchmark therefore times a fixed reference kernel, written in the style
of jumploci's hot loops (dict-of-tuple polynomial products, Fraction
elimination, string building), every SAMPLE_EVERY_S of the timed loop, and
reports each query time scaled to a machine on which one kernel run takes
NOMINAL_S:

    scaled = (raw - kernel time inside the query) * NOMINAL_S
             / mean kernel time sampled within WINDOW_S of the query

The kernel runs from a SIGALRM handler, so it samples the speed of the very
thread that runs the queries, in the middle of long queries too; the time it
takes is subtracted from the query it interrupted.  Raw times are kept in the
run's detail record.  The kernel never calls into jumploci, so a change to
the program cannot move the reference.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

NOMINAL_S = 0.001  # about the median kernel time on one Intel Xeon core of the reference host
SAMPLE_EVERY_S = 0.05
WINDOW_S = 2.0
REFERENCE_RUNS = 20  # kernel runs that time the speed right after a set-up probe


def kernel():
    a = {(i, j): (i * 7 + j * 3) % 11 - 5 for i in range(14) for j in range(3)}
    b = {(i, j): (i * 5 + j) % 7 - 3 for i in range(9) for j in range(3)}
    prod = {}
    for (i, j), x in a.items():
        for (k, m), y in b.items():
            key = (i + k, j + m)
            prod[key] = prod.get(key, 0) + x * y
    rows = [[Fraction((i * j + 3) % 7 - 3, 1 + (i + j) % 3) for j in range(6)] for i in range(6)]
    rank = 0
    for col in range(6):
        piv = next((r for r in range(rank, 6) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, 6):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    text = " + ".join(f"{c}*t^{e[0]}" for e, c in sorted(prod.items()) if c)
    return rank, len(text)


class SpeedLog:
    """Kernel runs at a fixed interval of the main thread; scales perf_counter intervals.

    Use as a context manager around the timed loop (main thread only).
    """

    def __init__(self):
        self.starts = []
        self.ends = []
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    @staticmethod
    def reference():
        """Mean kernel time over REFERENCE_RUNS back-to-back runs."""
        start = time.perf_counter()
        for _ in range(REFERENCE_RUNS):
            kernel()
        return (time.perf_counter() - start) / REFERENCE_RUNS

    def net(self, start, end):
        """Length of [start, end] minus the kernel runs inside it."""
        lo = bisect_left(self.ends, start)
        hi = bisect_right(self.starts, end)
        busy = sum(min(b, end) - max(a, start)
                   for a, b in zip(self.starts[lo:hi], self.ends[lo:hi]))
        return end - start - busy

    def scaled(self, start, end):
        """net(start, end) scaled by NOMINAL_S over the mean kernel time near the interval."""
        lo = bisect_left(self.ends, start - WINDOW_S)
        hi = bisect_right(self.starts, end + WINDOW_S)
        refs = [b - a for a, b in zip(self.starts[lo:hi], self.ends[lo:hi])]
        if not refs:
            refs = [b - a for a, b in zip(self.starts, self.ends)]
        return self.net(start, end) * NOMINAL_S * len(refs) / sum(refs)

    def mean_ref(self):
        return sum(b - a for a, b in zip(self.starts, self.ends)) / len(self.ends)
