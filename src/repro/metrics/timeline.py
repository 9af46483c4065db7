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


def _thread_intervals(tracer: TraceSink, rank: int, sim_time: float,
                      initial: str) -> tuple:
    """(transition times, states) for one thread, from trace records."""
    times: List[float] = [0.0]
    states: List[str] = [initial]
    for rec in tracer.records:
        if rec.kind == "state" and rec.rank == rank:
            times.append(rec.time)
            states.append(rec.fields[0])
    return times, states


def render_timeline(tracer: TraceSink, n_threads: int, sim_time: float,
                    width: int = 72, max_threads: int = 32) -> str:
    """Render per-thread state rows over ``width`` time buckets.

    Threads beyond ``max_threads`` are elided with a summary line.
    """
    if sim_time <= 0:
        return "(empty timeline)"
    shown = min(n_threads, max_threads)
    lines = [f"simulated time: 0 .. {sim_time * 1e3:.2f} ms "
             f"({width} buckets)"]
    for rank in range(shown):
        initial = WORKING if rank == 0 else SEARCHING
        times, states = _thread_intervals(tracer, rank, sim_time, initial)
        row = []
        for b in range(width):
            # Majority state within the bucket, by occupancy.
            lo = sim_time * b / width
            hi = sim_time * (b + 1) / width
            occupancy: dict = {}
            i = max(bisect_right(times, lo) - 1, 0)
            while i < len(times) and times[i] < hi:
                seg_lo = max(times[i], lo)
                seg_hi = min(times[i + 1] if i + 1 < len(times) else sim_time,
                             hi)
                if seg_hi > seg_lo:
                    occupancy[states[i]] = occupancy.get(states[i], 0.0) + \
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
