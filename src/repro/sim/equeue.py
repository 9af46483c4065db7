"""Bucket (calendar) event queue, on explicit ``queue="bucket"`` only.

The engine's event queue is one global ``heapq``: O(log m) comparisons
per push and pop over the whole pending set, which at thousands of
threads is dominated by far-future entries (steal-request pacing,
park/unpark cadences).  Measured on this host that still beats this
module, and it keeps the compiled run loop on (docs/performance.md,
"The event engine").

:class:`BucketQueue` is the classic calendar-queue alternative: items
are binned by ``int(time / width)``.  A push into any bucket other
than the one currently being drained is a plain O(1) ``list.append``;
a bucket is heapified (C ``heapq``) only when the clock reaches it,
and pops/pushes within the current bucket use the normal heap
operations on that small per-bucket heap.

Dispatch order is *identical* to the global heap's: items are
``(time, key, ...)`` tuples, bucket index is monotone in ``time``,
buckets are drained in index order, and each bucket is itself a heap
ordered by ``(time, key)``.  Two engines running the same schedule
through either queue therefore dispatch the exact same sequence
(property-tested in ``tests/sim/test_equeue.py``, including
same-timestamp batches under every ``repro.check`` tie-break policy).

During an uninterrupted run pushes never land below the current
bucket (the engine schedules at ``now + delay`` with ``delay >= 0``
and ``now`` lies inside it).  A ``run(until=)`` pause *can* rewind the
clock below the current bucket -- a spawn scheduled while paused may
then target an earlier index -- so :meth:`push` demotes the current
bucket back into the calendar when that happens and :meth:`pop`
re-advances from the earliest bucket.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Optional

from repro.errors import SimulationError

__all__ = ["BucketQueue", "DEFAULT_BUCKET_WIDTH"]

#: Default bucket width in simulated seconds.  Event spacing in this
#: package is microsecond-scale (network latencies, poll backoffs up
#: to 200us), so 20us buckets keep the active bucket small while the
#: far future stays in unordered append-only bins.  The width only
#: affects speed, never order.
DEFAULT_BUCKET_WIDTH = 20e-6


class BucketQueue:
    """Calendar queue with heap-identical dispatch order."""

    __slots__ = ("width", "_inv_width", "_buckets", "_idx_heap",
                 "_cur_idx", "_cur_list", "_len")

    def __init__(self, width: float = DEFAULT_BUCKET_WIDTH) -> None:
        if width <= 0:
            raise SimulationError(f"bucket width must be > 0, got {width!r}")
        self.width = width
        self._inv_width = 1.0 / width
        #: bucket index -> unordered list (future) or heap (current).
        self._buckets: dict[int, list] = {}
        #: Min-heap of every created bucket index not yet drained.
        self._idx_heap: list[int] = []
        #: Index/list of the bucket currently being drained (heapified);
        #: None before the first pop and right after a bucket empties.
        self._cur_idx: Optional[int] = None
        self._cur_list: list = []
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def push(self, item: tuple) -> None:
        """Insert ``(time, key, ...)``; O(1) unless it lands in the
        bucket currently being drained."""
        b = int(item[0] * self._inv_width)
        self._len += 1
        cur = self._cur_idx
        if b == cur:
            heappush(self._cur_list, item)
            return
        lst = self._buckets.get(b)
        if lst is None:
            self._buckets[b] = [item]
            heappush(self._idx_heap, b)
        else:
            lst.append(item)
        if cur is not None and b < cur:
            # Below-current push (only after a run(until=) pause rewound
            # the clock): demote the current bucket back into the
            # calendar; pop() re-advances from the earliest index.  The
            # demoted list stays in ``_buckets`` and is re-heapified
            # when its turn comes again (heapify is order-insensitive).
            heappush(self._idx_heap, cur)
            self._cur_idx = None
            self._cur_list = []

    def pop(self) -> Any:
        """Remove and return the globally smallest ``(time, key, ...)``."""
        lst = self._cur_list
        if not lst:
            buckets = self._buckets
            if self._cur_idx is not None:
                # Drained bucket: the clock moves past it and no
                # forward-in-time push can target it again.  (A pause
                # rewind may re-create the index later; push() handles
                # that as a fresh bucket.)
                del buckets[self._cur_idx]
                self._cur_idx = None
                self._cur_list = []
            idx_heap = self._idx_heap
            while True:
                if not idx_heap:
                    raise IndexError("pop from empty BucketQueue")
                b = heappop(idx_heap)
                lst = buckets.get(b)
                if lst:
                    break
                if lst is not None:
                    # Demoted-then-drained leftover: drop it so a later
                    # push to this index re-registers cleanly.
                    del buckets[b]
            heapify(lst)
            self._cur_idx = b
            self._cur_list = lst
        self._len -= 1
        return heappop(lst)
