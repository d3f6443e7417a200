"""Times intervals at a fixed reference speed of the host.

The benchmark shares a small virtual machine with other tenants, and its
CPU runs the same Python code up to twice as slow for seconds at a
time (CPU time slows with wall time, so this is not descheduling). Raw
times of one campaign then spread 30-40 % between runs of the same code.

A fixed pure-Python calibration loop is timed right before and right after
each measured interval. The interval is divided by the mean of those two
loop times and multiplied by ``REFERENCE_S``, the loop's time on that VM in
a quiet spell. The result is the interval as it would read at that speed:
a change to orelab that makes its work 10 % faster still reads 10 % faster,
while a slow spell of the host moves the loop and the interval alike and
cancels. ``host_speed`` reports how fast the host ran during the run.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# the loop's time on a 2-vCPU shared Linux VM, Python 3.11.7, in a quiet
# spell; it only sets the scale in which normalised times are printed
REFERENCE_S = 0.0025
LOOPS = 3000


def reference_loop(n: int = LOOPS) -> int:
    """Fixed interpreter work of the kinds orelab does: small-int and
    Fraction arithmetic, tuples, dict and list updates, calls."""
    table: dict = {}
    row = [0] * 16
    acc = 0
    for i in range(n):
        key = (i & 31, i % 7)
        table[key] = table.get(key, 0) + i
        row[i & 15] = (row[(i + 1) & 15] * 3 + i) % 1009
        acc += _mix(i, acc)
        if i % 8 == 0:
            acc += (Fraction(i % 13 + 1, 7) * Fraction(3, i % 11 + 2)).numerator
    return acc + len(table) + sum(row)


def _mix(i: int, acc: int) -> int:
    return (i * i + acc) % 97


class RefClock:
    """Normalised intervals; each interval is bracketed by loop timings."""

    def __init__(self):
        self.loop_times: list[float] = []
        self._last = self._time_loop()

    def _time_loop(self) -> float:
        t0 = perf_counter()
        reference_loop()
        dt = perf_counter() - t0
        self.loop_times.append(dt)
        return dt

    def scale(self, raw: float) -> float:
        """``raw`` seconds, just measured, at the reference speed. Call it
        right after the interval ends: it times the loop that closes it."""
        before = self._last
        self._last = after = self._time_loop()
        return raw * REFERENCE_S / ((before + after) / 2)

    def reopen(self) -> None:
        """Time the loop afresh before an interval that does not follow
        the previous one directly."""
        self._last = self._time_loop()

    @property
    def host_speed(self) -> float:
        """Reference time over the median loop time of the run: 1 in a
        quiet spell, lower when the host runs slow."""
        return REFERENCE_S / statistics.median(self.loop_times)
