"""Correction of timings for the speed the CPU ran at while they were taken.

On a shared host the same pure-Python work can take up to 70% longer
from one second to the next.  ``Calibrator`` runs a fixed stdlib-only loop (exact
``Fraction`` sums, small tuples and a dict, the same kinds of work the
library's hot paths do) between timed segments, at most every
``EVERY_S`` seconds and outside the clock.  Each segment is then scaled by
``REFERENCE_S`` over the mean of the loop times taken just before and just
after it, which gives the segment's duration at the reference speed.  The
loop never calls holderlevels, so a change to the library cannot move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

EVERY_S = 0.025
# loop time on an idle 2-vCPU Intel Xeon guest with Python 3.11; any
# constant works, since runs are only compared with runs on one machine
REFERENCE_S = 0.00125


def reference_loop() -> float:
    """Seconds taken by the fixed reference work."""
    start = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 300):
        q = Fraction(i, 1 << (i % 13))
        acc = (acc + q) / 2
        table[(i % 7, i % 11)] = (q, acc.denominator.bit_length())
    if not table:
        raise AssertionError("reference loop did no work")
    return time.perf_counter() - start


class Calibrator:
    """Collects raw segment times and hands back their corrected values."""

    def __init__(self):
        self._prev = reference_loop()
        self._last = time.perf_counter()
        self._pending: list[tuple[float, list]] = []
        self.loops = 1

    def segment(self, elapsed: float, *sinks: list) -> None:
        """Queue one segment; its corrected time is appended to each sink."""
        self._pending.append((elapsed, sinks))
        if time.perf_counter() - self._last >= EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        current = reference_loop()
        self.loops += 1
        factor = REFERENCE_S / ((self._prev + current) / 2)
        for elapsed, sinks in self._pending:
            for sink in sinks:
                sink.append(elapsed * factor)
        self._pending.clear()
        self._prev = current
        self._last = time.perf_counter()
