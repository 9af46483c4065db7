"""Derived trace analyses: the numbers behind the paper's discussion.

Everything here is a pure function of a run's event list:

* :func:`state_occupancy` -- per-rank seconds in each Figure-1 state,
  the table behind Sect. 6.2's "93% of threads' time in the working
  state".
* :func:`steal_matrix` -- who stole from whom (successful steals and
  nodes moved), exposing victim hot-spots.
* :func:`steal_latencies` / :func:`steal_latency_histogram` -- time
  from a thief's request to its outcome, per attempt.
* :func:`termination_breakdown` -- barrier entries/exits, when
  termination was announced, and each rank's share of time in the
  detection phase.

All functions accept the event list from
:meth:`~repro.obs.sink.TraceSink.events` or
:func:`~repro.obs.jsonl.load_jsonl` interchangeably.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.metrics.states import SEARCHING, STATES, WORKING
from repro.obs.events import _TERM_KINDS, ObsEvent

__all__ = [
    "state_occupancy",
    "steal_matrix",
    "steal_latencies",
    "steal_latency_histogram",
    "termination_breakdown",
    "idle_summary",
    "service_summary",
]

#: Steal outcomes that close a ``steal.req`` transaction on the thief.
_STEAL_OUTCOMES = ("steal", "steal.fail")


def _infer_shape(events: List[ObsEvent], n_threads: Optional[int],
                 sim_time: Optional[float]) -> Tuple[int, float]:
    if n_threads is None:
        n_threads = max((e.rank for e in events), default=-1) + 1 or 1
    if sim_time is None:
        sim_time = max((e.time for e in events), default=0.0)
    return n_threads, sim_time


def _state_intervals(events: List[ObsEvent], n_threads: int,
                     sim_time: float
                     ) -> Iterator[Tuple[int, str, float, float]]:
    """``(rank, state, t0, t1)`` for every Figure-1 state interval of
    ranks ``0 .. n_threads - 1``, from ``state`` events: the interval
    each transition closes, in event order, then each rank's last one,
    up to ``sim_time``, in rank order.  Ranks start as a run does (rank
    0 working, the rest searching); an interval may be empty.
    """
    current = {r: (WORKING if r == 0 else SEARCHING, 0.0)
               for r in range(n_threads)}
    for ev in events:
        if ev.kind != "state" or ev.rank not in current:
            continue
        state, since = current[ev.rank]
        yield ev.rank, state, since, ev.time
        current[ev.rank] = (ev.args.get("state", state), ev.time)
    for rank, (state, since) in current.items():
        yield rank, state, since, max(sim_time, since)


def state_occupancy(events: List[ObsEvent], n_threads: Optional[int] = None,
                    sim_time: Optional[float] = None
                    ) -> Dict[int, Dict[str, float]]:
    """Seconds each rank spent in each state, from ``state`` events.

    Matches the run's :class:`~repro.metrics.states.StateTimer`
    accounting exactly (same transition stream, same initial states:
    rank 0 working, the rest searching).
    """
    n_threads, sim_time = _infer_shape(events, n_threads, sim_time)
    occupancy = {r: dict.fromkeys(STATES, 0.0) for r in range(n_threads)}
    for rank, state, t0, t1 in _state_intervals(events, n_threads, sim_time):
        occupancy[rank][state] += t1 - t0
    return occupancy


def steal_matrix(events: List[ObsEvent], n_threads: Optional[int] = None
                 ) -> Tuple[List[List[int]], List[List[int]]]:
    """``(steals, nodes)`` matrices indexed ``[thief][victim]``.

    Counts successful steals only (``steal`` events); the row sums
    equal each thief's ``steals_ok`` counter and the column sums show
    which victims fed the run.
    """
    n_threads, _ = _infer_shape(events, n_threads, None)
    steals = [[0] * n_threads for _ in range(n_threads)]
    nodes = [[0] * n_threads for _ in range(n_threads)]
    for ev in events:
        if ev.kind != "steal":
            continue
        victim = ev.args.get("from")
        if victim is None or not (0 <= ev.rank < n_threads) \
                or not (0 <= victim < n_threads):
            continue
        steals[ev.rank][victim] += 1
        nodes[ev.rank][victim] += ev.args.get("nodes", 0)
    return steals, nodes


def steal_latencies(events: List[ObsEvent]) -> List[Tuple[str, float]]:
    """``(outcome, seconds)`` per completed steal attempt.

    A thief runs one steal transaction at a time, so each rank's
    ``steal.req`` is matched with that rank's next ``steal`` or
    ``steal.fail``.  Attempts still open when the trace ends (e.g. a
    request outstanding at termination) are dropped.
    """
    open_req: Dict[int, float] = {}
    out: List[Tuple[str, float]] = []
    for ev in events:
        if ev.kind == "steal.req":
            open_req[ev.rank] = ev.time
        elif ev.kind in _STEAL_OUTCOMES:
            t0 = open_req.pop(ev.rank, None)
            if t0 is not None:
                outcome = ("ok" if ev.kind == "steal"
                           else ev.args.get("reason", "fail"))
                out.append((outcome, ev.time - t0))
    return out


def steal_latency_histogram(events: List[ObsEvent]
                            ) -> List[Tuple[float, float, int]]:
    """Power-of-two microsecond buckets: ``(lo_us, hi_us, count)``.

    Buckets cover every observed latency; empty interior buckets are
    included so histograms of different runs line up when diffed.
    """
    latencies = [dt for _, dt in steal_latencies(events)]
    if not latencies:
        return []
    edges: List[float] = [0.0, 1.0]
    while max(latencies) * 1e6 >= edges[-1]:
        edges.append(edges[-1] * 2)
    buckets = []
    for lo, hi in zip(edges, edges[1:]):
        count = sum(1 for dt in latencies if lo <= dt * 1e6 < hi)
        buckets.append((lo, hi, count))
    return buckets


def idle_summary(events: List[ObsEvent], n_threads: Optional[int] = None
                 ) -> Dict[str, object]:
    """Idle-gate activity under ``idle_strategy="park"``.

    Pairs each rank's ``idle.park`` with its next ``idle.wake`` (a
    thread has at most one park outstanding).  Returns per-rank
    ``parks`` / ``wakes`` / ``parked_seconds`` lists plus
    ``total_parks`` and ``total_parked_seconds``.  All zeros on a
    polling run (the kinds are simply absent).
    """
    n_threads, _ = _infer_shape(events, n_threads, None)
    parks = [0] * n_threads
    wakes = [0] * n_threads
    parked = [0.0] * n_threads
    open_park: Dict[int, float] = {}
    for ev in events:
        if ev.kind == "idle.park" and 0 <= ev.rank < n_threads:
            parks[ev.rank] += 1
            open_park[ev.rank] = ev.time
        elif ev.kind == "idle.wake" and 0 <= ev.rank < n_threads:
            wakes[ev.rank] += 1
            t0 = open_park.pop(ev.rank, None)
            if t0 is not None:
                parked[ev.rank] += ev.time - t0
    return {
        "parks": parks,
        "wakes": wakes,
        "parked_seconds": parked,
        "total_parks": sum(parks),
        "total_parked_seconds": sum(parked),
    }


def service_summary(events: List[ObsEvent]) -> Dict[str, object]:
    """Open-system lifecycle rollup from the ``task.*`` events.

    Returns counts per lifecycle stage (``arrived`` / ``admitted`` /
    ``started`` / ``completed`` / ``lost``), sheds broken down by
    reason, retry count, queue-wait and latency lists (seconds, in
    completion order), the peak admitted-queue depth observed in
    ``task.admit`` events, and the ``service.close`` time (None if the
    trace ended before the stream drained).  All zeros / empty on a
    batch run -- the kinds are simply absent.
    """
    sheds: Dict[str, int] = {}
    out: Dict[str, object] = {
        "arrived": 0, "admitted": 0, "started": 0, "completed": 0,
        "lost": 0, "retries": 0, "sheds": sheds, "queue_peak": 0,
        "waits": [], "latencies": [], "close_time": None,
    }
    for ev in events:
        kind = ev.kind
        if kind == "task.arrive":
            out["arrived"] += 1
        elif kind == "task.admit":
            out["admitted"] += 1
            depth = ev.args.get("depth", 0)
            if depth > out["queue_peak"]:
                out["queue_peak"] = depth
        elif kind == "task.start":
            out["started"] += 1
            out["waits"].append(ev.args.get("wait", 0.0))
        elif kind == "task.done":
            out["completed"] += 1
            out["latencies"].append(ev.args.get("lat", 0.0))
        elif kind == "task.lost":
            out["lost"] += 1
        elif kind == "task.retry":
            out["retries"] += 1
        elif kind == "task.shed":
            reason = ev.args.get("reason", "?")
            sheds[reason] = sheds.get(reason, 0) + 1
        elif kind == "service.close" and out["close_time"] is None:
            out["close_time"] = ev.time
    return out


def termination_breakdown(events: List[ObsEvent],
                          n_threads: Optional[int] = None,
                          sim_time: Optional[float] = None
                          ) -> Dict[str, object]:
    """How the run ended: barrier churn and the announcement tail.

    Returns a dict with per-rank ``barrier_seconds`` /
    ``barrier_entries`` / ``barrier_exits``, the simulated time of the
    termination announcement (``announce_time``; the first event of a
    termination kind -- ``sbarrier.announce``, ``cbarrier.terminate``,
    ``mpi.term``, ``tsplit.term`` or a service run's
    ``service.close`` -- or None), and ``tail_seconds`` -- simulated
    time between the announcement and the end of the run.
    """
    n_threads, sim_time = _infer_shape(events, n_threads, sim_time)
    occupancy = state_occupancy(events, n_threads, sim_time)
    entries = [0] * n_threads
    exits = [0] * n_threads
    prev_state = {r: (WORKING if r == 0 else SEARCHING)
                  for r in range(n_threads)}
    announce: Optional[float] = None
    for ev in events:
        if ev.kind == "state" and ev.rank in prev_state:
            state = ev.args.get("state", "")
            if state == "barrier" and prev_state[ev.rank] != "barrier":
                entries[ev.rank] += 1
            elif state != "barrier" and prev_state[ev.rank] == "barrier":
                exits[ev.rank] += 1
            prev_state[ev.rank] = state
        elif announce is None and ev.kind in _TERM_KINDS:
            announce = ev.time
    return {
        "barrier_seconds": [occupancy[r]["barrier"] for r in range(n_threads)],
        "barrier_entries": entries,
        "barrier_exits": exits,
        "announce_time": announce,
        "tail_seconds": (sim_time - announce) if announce is not None else None,
        "sim_time": sim_time,
    }
