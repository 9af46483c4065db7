#!/usr/bin/env python
"""Measure O(active)-engine scaling: 256 -> 4096 simulated threads.

``bench_engine.py`` pins the canonical schedule's per-event cost on
the Figure-4 sweep; this tool pins the *scaling claim* (E11): with
``idle_strategy="park"``, a machine that is
mostly idle costs O(active threads), so per-event host cost stays
roughly flat as the machine grows.  The workload is deliberately tiny
(a ~3k-node tree across thousands of threads) -- the regime where the
polling engine drowns in idle backoff events.

Every cell runs under the :class:`~repro.check.invariants.InvariantMonitor`
with full result verification, and samples the engine's pending-event
count at every trace emit, so the committed JSON carries peak queue
size alongside events/sec and peak RSS.

The committed ``BENCH_scale.json`` is keyed by cell
(``variant/threads/idle``); each cell stores a ``checksum`` over its
schedule-identity fields (total_nodes, engine_events, sim_time).
Park-mode runs are deterministic, so the checksum is stable across
hosts -- ``--check`` gates on it (and on invariant/verification
failures), never on wall-clock.

Usage::

    PYTHONPATH=src python tools/bench_scale.py                  # full matrix
    PYTHONPATH=src python tools/bench_scale.py --threads 1024 --check
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.check.invariants import InvariantMonitor  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.harness.runner import run_experiment  # noqa: E402
from repro.uts.params import TreeParams  # noqa: E402
from repro.ws.config import WsConfig  # noqa: E402

DEFAULT_THREADS = (256, 1024, 4096)


class QueuePeakMonitor(InvariantMonitor):
    """Invariant monitor that also samples the pending-event count.

    ``Simulator.queue_size`` is O(1) for both backends, so sampling at
    every trace emit is cheap.  (Heap counts include stale entries, so
    the park-vs-poll comparison slightly *flatters* poll.)  The peak is
    always ~n -- the startup burst where every thread must run once
    before it can park -- so the quantiles are the informative part:
    under park the queue collapses to O(active) once the idle threads
    reach the gate.
    """

    def __init__(self) -> None:
        super().__init__()
        self.queue_samples: list = []

    def emit(self, time: float, thread: int, kind: str,
             fields: tuple = ()) -> None:
        super().emit(time, thread, kind, fields)
        if self.machine is not None:
            self.queue_samples.append(self.machine.sim.queue_size)

    def queue_stats(self) -> dict:
        s = sorted(self.queue_samples)
        if not s:
            return {"peak_queue": 0, "p50_queue": 0, "p95_queue": 0}
        return {
            "peak_queue": s[-1],
            "p50_queue": s[len(s) // 2],
            "p95_queue": s[(len(s) * 95) // 100],
        }


def cell_checksum(res) -> str:
    """SHA-1 over the cell's schedule-identity fields."""
    h = hashlib.sha1()
    h.update((f"{res.algorithm},{res.n_threads},{res.chunk_size},"
              f"{res.total_nodes},{res.engine_events},"
              f"{res.sim_time!r}\n").encode())
    return h.hexdigest()


def run_cell(variant: str, threads: int, idle: str, tree: TreeParams,
             chunk_size: int, seed: int, max_events: int) -> dict:
    """One cell = a clean timed run + an invariant-monitored gate run.

    The monitor's cost grows with the machine (its every-emit ledger
    pass compares one length per stack region, and every 64th emit it
    walks every stack): measured on the upc-distmem park cell over
    T1_QUICK, the monitored run takes 2.1x the plain one at 8 threads,
    5.8x at 256 and 11.5x at 1024 (docs/performance.md, "The monitor
    pays for what changed"; 3.3x / 19x / 42x before ISSUE 23), so timing it
    would measure the checker, not the engine.  The timed run is
    untraced; the monitored run re-executes the identical deterministic
    schedule (checked via the checksum) to certify the invariants and
    sample queue depth, and its run-phase seconds are reported beside
    the timed run's.  Never raises ReproError.
    """
    cfg = WsConfig(chunk_size=chunk_size, idle_strategy=idle)
    wall_t0 = time.perf_counter()
    try:
        res = run_experiment(variant, tree=tree, threads=threads,
                             config=cfg, preset="kittyhawk", seed=seed,
                             verify=True, max_events=max_events)
    except ReproError as exc:
        return {"ok": False, "error_type": type(exc).__name__,
                "error": str(exc)}
    wall = time.perf_counter() - wall_t0

    monitor = QueuePeakMonitor()
    try:
        gres = run_experiment(variant, tree=tree, threads=threads,
                              config=cfg, preset="kittyhawk", seed=seed,
                              verify=True, tracer=monitor,
                              max_events=max_events)
        monitor.final_check()
    except ReproError as exc:
        return {"ok": False, "error_type": type(exc).__name__,
                "error": str(exc)}
    if cell_checksum(gres) != cell_checksum(res):
        return {"ok": False, "error_type": "ScheduleDrift",
                "error": "monitored run diverged from timed run "
                         "(tracing must not perturb the schedule)"}
    gate = getattr(monitor.algo, "_gate", None)
    return {
        "ok": True,
        "engine_events": res.engine_events,
        "total_nodes": res.total_nodes,
        "sim_time": res.sim_time,
        "wall_seconds": round(wall, 3),
        "setup_seconds": round(wall - res.host_seconds, 3),
        "run_seconds": round(res.host_seconds, 3),
        # the gate run's run phase: next to run_seconds, what leaving
        # the monitor on costs at this size (reported, never gated)
        "monitored_seconds": round(gres.host_seconds, 3),
        "events_per_sec": round(res.engine_events / res.host_seconds, 1)
        if res.host_seconds > 0 else None,
        "us_per_event": round(res.host_seconds / res.engine_events * 1e6, 2)
        if res.engine_events > 0 else None,
        **monitor.queue_stats(),
        "parks": gate.parks if gate is not None else 0,
        "wakes": gate.wakes if gate is not None else 0,
        # Process high-water mark: monotonic across cells, so run the
        # matrix smallest-first and read each cell's value as an upper
        # bound on that cell's footprint.
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "checksum": cell_checksum(res),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--variant", default="upc-distmem")
    ap.add_argument("--threads", default=",".join(map(str, DEFAULT_THREADS)),
                    help="comma-separated simulated thread counts")
    ap.add_argument("--idle", default="park,poll",
                    help="comma-separated idle strategies to measure")
    ap.add_argument("--poll-max-threads", type=int, default=1024,
                    help="skip poll cells above this thread count (the "
                         "polling engine's host cost grows ~quadratically "
                         "on an idle machine; that growth is the point, "
                         "not worth minutes of CI)")
    ap.add_argument("--b0", type=int, default=100)
    ap.add_argument("--chunk-size", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-events", type=int, default=5_000_000)
    ap.add_argument("--out", default="BENCH_scale.json")
    ap.add_argument("--check", action="store_true",
                    help="CI gate: fail on checksum drift vs the committed "
                         "JSON, or on any invariant/verification failure "
                         "(wall-clock is reported, never gated)")
    args = ap.parse_args(argv)

    committed = None
    if os.path.exists(args.out):
        with open(args.out) as fh:
            committed = json.load(fh)

    tree = TreeParams.binomial(b0=args.b0, m=2, q=0.48, seed=1)
    thread_counts = sorted(int(t) for t in args.threads.split(","))
    idles = [s.strip() for s in args.idle.split(",")]

    cells: dict = {}
    failures = []
    drift = []
    for threads in thread_counts:
        for idle in idles:
            if idle == "poll" and threads > args.poll_max_threads:
                print(f"skip {args.variant}/{threads}/poll "
                      f"(> --poll-max-threads {args.poll_max_threads})")
                continue
            key = f"{args.variant}/{threads}/{idle}"
            cell = run_cell(args.variant, threads, idle, tree,
                            args.chunk_size, args.seed, args.max_events)
            cells[key] = cell
            if not cell["ok"]:
                failures.append(f"{key}: {cell['error_type']}: "
                                f"{cell['error']}")
                print(f"{key:30s} FAILED {cell['error_type']}")
                continue
            print(f"{key:30s} events={cell['engine_events']:8d} "
                  f"run={cell['run_seconds']:7.3f}s "
                  f"monitored={cell['monitored_seconds']:7.3f}s "
                  f"us/ev={cell['us_per_event']:7.2f} "
                  f"queue p50={cell['p50_queue']:6d} "
                  f"peak={cell['peak_queue']:6d} "
                  f"rss={cell['peak_rss_kb'] / 1024:.0f}MB")
            if args.check and committed is not None:
                old = committed.get("cells", {}).get(key)
                if old is None:
                    print(f"  (no committed baseline for {key})")
                elif old.get("checksum") != cell["checksum"]:
                    drift.append(
                        f"{key}: checksum {cell['checksum']} != committed "
                        f"{old['checksum']} (events "
                        f"{cell['engine_events']} vs "
                        f"{old.get('engine_events')})")

    report = {
        "benchmark": f"O(active) scaling, {args.variant}, "
                     f"binomial b0={args.b0} tree",
        "host": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "cells": cells,
    }
    if not args.check:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")

    if failures:
        print("FAILED cells:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    if args.check:
        if committed is None:
            print("check: no committed baseline to compare against",
                  file=sys.stderr)
            return 2
        if drift:
            print("check FAILED (schedule drift):", file=sys.stderr)
            for d in drift:
                print(f"  {d}", file=sys.stderr)
            return 1
        print("check OK: schedules identical to committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
