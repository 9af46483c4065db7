"""A yardstick for the host's speed, read beside every timed cell.

This host's speed moves by 10-30% for seconds to minutes at a time
(other tenants of the same cores and memory), so ten runs of identical
code spread by 6-14% in raw seconds, more than any bound worth having.
The benchmark therefore times two fixed pieces of interpreter work
between cells -- they use nothing from ``src/`` and allocate nothing,
so that no change to the package can move them -- and reports host
time in *reference seconds*: measured seconds divided by how much
slower than the reference host the yardstick ran around that moment.
On the reference host a reference second is a second.  Raw seconds are
printed beside every normalised number.

Two pieces, because the host slows down in two ways and the workloads
feel them differently.  A dependent walk through an 18 MB table
follows memory latency: it removed most of the run-to-run spread of
the large-tree workloads (``fig4-fast`` 5.3% -> 3.2%, ``park-pool``
14% -> 6%) and none of ``fuzz-slice``'s.  An arithmetic loop over a
small buffer follows core speed: ``fuzz-slice`` 5.8% -> 1.9%, and it
barely helps ``fig4-fast`` (4.9%).  A reading is the geometric mean of
the two slowdowns, which held both at 3.5-4%.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

#: What the two loops take on the reference host: about what this host
#: takes in its usual state, so that ref_s and s are close here.
REF_WALK_S = 0.0050
REF_ARITH_S = 0.0048
#: Readings before / after a cell whose median is that cell's factor.
WINDOW_BEFORE, WINDOW_AFTER = 3, 5
_TABLE_BITS = 19
_WALK_STEPS = 15_000
_ARITH_STEPS = 70_000
_LEAD_IN = 500


class Yardstick:
    """Owns the loops' tables; :meth:`read` times both loops once."""

    def __init__(self) -> None:
        mask = (1 << _TABLE_BITS) - 1
        # A full-period LCG step is a permutation of 0..mask with one
        # cycle, so the walk never revisits an entry within a reading.
        self._next = [(j * 1664525 + 1013904223) & mask
                      for j in range(mask + 1)]
        self._small = list(range(1024))
        #: Slowdown against the reference host, one per reading.
        self.readings: List[float] = []

    def _walk(self, steps: int) -> int:
        table, j, x = self._next, 0, 0
        for _ in range(steps):
            j = table[j]
            x = (x + j * 3) & 0xFFFF
        return x

    def _arith(self, steps: int) -> int:
        buf, x = self._small, 0
        for i in range(steps):
            x = (x + buf[i & 1023] * 3) & 0xFFFF
        return x

    @staticmethod
    def _time(loop, steps: int) -> float:
        loop(_LEAD_IN)  # untimed: reloads the loop's own code and locals
        t0 = time.perf_counter()
        loop(steps)
        return time.perf_counter() - t0

    def read(self) -> int:
        """Take one reading; returns its index."""
        walk = self._time(self._walk, _WALK_STEPS) / REF_WALK_S
        arith = self._time(self._arith, _ARITH_STEPS) / REF_ARITH_S
        self.readings.append((walk * arith) ** 0.5)
        return len(self.readings) - 1

    def slowdown(self, index: int) -> float:
        """How much slower than the reference host the yardstick ran
        around reading ``index`` (median of the readings beside it)."""
        return statistics.median(
            self.readings[max(0, index - WINDOW_BEFORE):
                          index + WINDOW_AFTER])


def to_reference(seconds: Sequence[float], yardstick: Yardstick,
                 reading_before: Sequence[int]) -> List[float]:
    """Measured seconds as reference seconds, given for each the index
    of the yardstick reading taken just before it."""
    return [s / yardstick.slowdown(i)
            for s, i in zip(seconds, reading_before)]
