"""ASCII execution timelines (a dynamic view of Figure 1).

Renders each thread's state over simulated time as one row of
characters, reconstructed from the ``state`` records the algorithms
emit through the tracer:

    T0  WWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWb
    T1  ....ssSWWWWWWWWWWWWWssSWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWb
    T2  ....ssssssSWWWWWWWWWWWWWWWWWWWWWWWWWssSWWWWWWWWWWWWWWWb

Legend: ``W`` working, ``s`` searching, ``S`` stealing, ``b`` barrier.
Each column is one time bucket; the bucket shows the state occupying
most of it.  Use ``run_experiment(..., tracer=TraceSink())`` to collect
the records.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, List

from repro.errors import ConfigError
from repro.metrics.states import BARRIER, SEARCHING, STEALING, WORKING

if TYPE_CHECKING:
    from repro.obs.sink import TraceSink

__all__ = ["render_timeline", "STATE_CHARS"]

STATE_CHARS = {
    WORKING: "W",
    SEARCHING: "s",
    STEALING: "S",
    BARRIER: "b",
}


def render_timeline(tracer: TraceSink, n_threads: int, sim_time: float,
                    width: int = 72, max_threads: int = 32) -> str:
    """Render per-thread state rows over ``width`` time buckets.

    Threads beyond ``max_threads`` are elided with a summary line.
    A ``width`` below one bucket is a :class:`~repro.errors.ConfigError`.
    """
    if width < 1:
        raise ConfigError(f"timeline width={width} must be at least 1")
    if sim_time <= 0:
        return "(empty timeline)"
    # Imported here: repro.obs.analysis imports repro.metrics.
    from repro.obs.analysis import _state_intervals
    shown = min(n_threads, max_threads)
    rows: List[List[tuple]] = [[] for _ in range(shown)]
    for rank, state, t0, t1 in _state_intervals(tracer.records, shown,
                                                 sim_time):
        rows[rank].append((t0, t1, state))
    lines = [f"simulated time: 0 .. {sim_time * 1e3:.2f} ms "
             f"({width} buckets)"]
    for rank, intervals in enumerate(rows):
        starts = [t0 for t0, _, _ in intervals]
        row = []
        for b in range(width):
            # Majority state within the bucket, by occupancy.
            lo = sim_time * b / width
            hi = sim_time * (b + 1) / width
            occupancy: dict = {}
            i = max(bisect_right(starts, lo) - 1, 0)
            while i < len(intervals) and starts[i] < hi:
                t0, t1, state = intervals[i]
                seg_lo = max(t0, lo)
                seg_hi = min(t1, hi)
                if seg_hi > seg_lo:
                    occupancy[state] = occupancy.get(state, 0.0) + \
                        (seg_hi - seg_lo)
                i += 1
            if occupancy:
                state = max(occupancy, key=occupancy.get)
                row.append(STATE_CHARS.get(state, "?"))
            else:
                row.append(" ")
        lines.append(f"T{rank:<4d}{''.join(row)}")
    if n_threads > shown:
        lines.append(f"... ({n_threads - shown} more threads elided)")
    legend = "  ".join(f"{c}={s}" for s, c in
                       ((s, STATE_CHARS[s]) for s in
                        (WORKING, SEARCHING, STEALING, BARRIER)))
    lines.append(f"legend: {legend}")
    return "\n".join(lines)
