"""Chrome ``trace_event`` exporter (Perfetto / ``chrome://tracing``).

Turns a run's structured events into the Trace Event Format JSON that
Perfetto and Chrome's legacy viewer load directly: one process for the
run, one track (thread) per simulated rank, each rank's Figure-1 state
machine rendered as complete ("X") slices and every protocol event as
an instant ("i") mark on its rank's track.  Timestamps are simulated
microseconds.

The output is a plain dict; :func:`dump_chrome_trace` serialises it
deterministically (sorted keys) so traces of identical runs are
byte-identical and can be golden-file tested and diffed.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.analysis import _infer_shape, _state_intervals
from repro.obs.events import ObsEvent

__all__ = ["to_chrome_trace", "dump_chrome_trace"]

_PID = 0


def _slice(rank: int, state: str, t0: float, t1: float) -> Dict[str, Any]:
    return {"name": state, "cat": "state", "ph": "X", "pid": _PID,
            "tid": rank, "ts": t0 * 1e6, "dur": (t1 - t0) * 1e6}


def to_chrome_trace(events: Iterable[ObsEvent], *,
                    n_threads: Optional[int] = None,
                    sim_time: Optional[float] = None,
                    meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Build the Trace Event Format dict for a run's events.

    ``n_threads`` / ``sim_time`` default to values inferred from the
    events (or taken from ``meta`` when present); pass them explicitly
    for exactness on runs whose last event precedes the final barrier.
    """
    events = list(events)
    meta = dict(meta or {})
    n_threads = n_threads if n_threads is not None else meta.get("threads")
    sim_time = sim_time if sim_time is not None else meta.get("sim_time")
    n_threads, sim_time = _infer_shape(events, n_threads, sim_time)

    trace_events: List[Dict[str, Any]] = []
    process_name = meta.get("algorithm", "repro run")
    trace_events.append({"name": "process_name", "ph": "M", "pid": _PID,
                         "tid": 0, "args": {"name": str(process_name)}})
    for rank in range(n_threads):
        trace_events.append({"name": "thread_name", "ph": "M", "pid": _PID,
                             "tid": rank, "args": {"name": f"rank {rank}"}})
        trace_events.append({"name": "thread_sort_index", "ph": "M",
                             "pid": _PID, "tid": rank,
                             "args": {"sort_index": rank}})

    # Each rank's states as slices covering [0, sim_time] without gaps.
    trace_events.extend(
        _slice(rank, state, t0, t1) for rank, state, t0, t1
        in _state_intervals(events, n_threads, sim_time) if t1 > t0)

    for ev in events:
        if ev.kind == "state":
            continue  # rendered as slices above
        category = ev.kind.split(".", 1)[0]
        trace_events.append({
            "name": ev.kind, "cat": category, "ph": "i", "s": "t",
            "pid": _PID, "tid": ev.rank, "ts": ev.time * 1e6,
            "args": ev.args,
        })

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": meta,
    }


def dump_chrome_trace(path: str, events: Iterable[ObsEvent], *,
                      n_threads: Optional[int] = None,
                      sim_time: Optional[float] = None,
                      meta: Optional[Dict[str, Any]] = None) -> str:
    """Write the Chrome trace JSON to ``path``; returns the path."""
    doc = to_chrome_trace(events, n_threads=n_threads, sim_time=sim_time,
                          meta=meta)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path
