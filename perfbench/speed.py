"""Correcting timings for the machine's own speed swings.

On a shared host the speed of a core swings by up to half, in phases that
last from under a second to tens of seconds, and a whole run can fall in
a slow phase.  Filtering over repeated passes cannot remove that, so the
benchmark measures the swing itself: a thread runs a fixed pure-Python
kernel every ``INTERVAL_S`` and records how long it took.  A unit of work
that ran from ``t0`` to ``t1`` is then scaled by ``REFERENCE_S`` over the
mean kernel time sampled in that window, which turns its wall time into
the time it would have taken at the speed where the kernel takes
``REFERENCE_S``.  The kernel is the benchmark's own code, so no change to
the package can move it; a change to the package moves only the scaled
times.  Run single-threaded work pinned to one CPU, so that the thread
samples the CPU the work runs on.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
from time import perf_counter

#: Kernel time at full speed on a shared 2-core x86-64 host with Python 3.11.
REFERENCE_S = 6.0e-5
INTERVAL_S = 0.05


def kernel() -> int:
    """Interpreter work of the kind the solvers do: tuple keys, dicts, bits."""
    table: dict = {}
    acc = 0
    for i in range(120):
        key = (i & 7, i >> 3, acc & 0xFF)
        table[key] = acc
        acc = (acc * 31 + table.get((i & 7, i >> 3, 0), i)) & 0xFFFF
        acc ^= (acc & -acc).bit_length()
    return acc


def sample() -> float:
    """Fastest of three kernel runs, so a single interruption does not count."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best


def pin_to_one_cpu() -> None:
    """Keep this process, and with it the sampling thread, on one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class SpeedProbe:
    """Samples the kernel in the background while a ``with`` block runs."""

    def __init__(self):
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            t = perf_counter()
            self.kernel_s.append(sample())
            self.times.append(t)

    def __enter__(self) -> SpeedProbe:
        self.times.append(perf_counter())
        self.kernel_s.append(sample())
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """Scale for work done between ``start`` and ``end``.

        Uses the samples taken in that window, or the nearest one when the
        window is shorter than the sampling interval.
        """
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi > lo:
            return REFERENCE_S / statistics.fmean(self.kernel_s[lo:hi])
        if lo == len(self.times) or (lo > 0 and start - self.times[lo - 1] < self.times[lo] - end):
            lo -= 1
        return REFERENCE_S / self.kernel_s[lo]
