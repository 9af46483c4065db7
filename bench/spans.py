"""In-memory span recorder for the traced run.

A span is ``(name, start, end, parent, cell)``: the step of one cell
that was running between two clock readings, and the span it ran
inside.  Spans are opened from ``bench/`` code around calls into the
package's public constructors (nothing inside ``src/`` knows about
them), kept in a list, and written out once when the run ends.

A span's *self time* is its duration minus the part its direct
children cover, so self times over a whole trace add up to the
durations of the top-level spans exactly.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional


class Recorder:
    """Collects spans; ``span()`` nests through a parent stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if cell is None and parent is not None:
            cell = self.spans[parent]["cell"]
        record = {"name": name, "start": self._clock(), "end": None,
                  "parent": parent, "cell": cell}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = self._clock()
            self._stack.pop()


def self_times(spans: List[dict]) -> List[float]:
    """Per-span self time: duration minus the direct children's."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def self_time_by_name(spans: List[dict]) -> Dict[str, float]:
    """Self time summed over every span of the same name."""
    totals: Dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        totals[s["name"]] = totals.get(s["name"], 0.0) + own
    return totals
