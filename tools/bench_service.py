#!/usr/bin/env python
"""Load-vs-latency for the open-system service mode (E12).

``bench_scale.py`` pins the engine's O(active) scaling on one closed
batch; this tool pins the *service* claim: a continuous task stream on
a parked pool degrades gracefully -- latency rises smoothly with load,
the bounded admission queue sheds excess instead of collapsing, and a
mid-run kill storm costs a bounded shed/loss fraction, never task
accounting.

Each cell sweeps one offered-load point: the arrival rate is a
fraction of the machine's analytic capacity

    capacity = threads / (E[nodes/task] * gran * node_visit_time)

so ``load=0.9`` means 90% utilisation if stealing were free.  Points
above 1.0 are deliberate overload: the shed fraction must become
positive and the queue must stay bounded.  One extra cell replays the
``load=0.9`` point under a kill storm.

Every cell runs twice: a clean timed run and an identical run under
the :class:`~repro.check.invariants.InvariantMonitor` (extended I1
task conservation + ``service.close`` termination), cross-checked by a
schedule checksum.  The committed ``BENCH_service.json`` is keyed by
``T{threads}/{point}``; ``--check`` gates on checksums and invariants,
never on wall-clock.

Usage::

    PYTHONPATH=src python tools/bench_service.py                # full curve
    PYTHONPATH=src python tools/bench_service.py --threads 64 --check
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.check.invariants import InvariantMonitor  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.faults.plan import parse_fault_spec  # noqa: E402
from repro.net.presets import get_preset  # noqa: E402
from repro.service import ArrivalProcess, ServiceConfig, run_service  # noqa: E402
from repro.ws.config import WsConfig  # noqa: E402

LOADS = (0.3, 0.6, 0.9, 1.2, 1.5)
STORM_LOAD = 0.9
STORM_FRACTION = 1 / 32  # kill ~3% of the pool mid-run


def capacity(threads: int, service: ServiceConfig, preset: str) -> float:
    """Analytic task throughput ceiling (tasks/second)."""
    t_node = get_preset(preset).node_visit_time
    return threads / (service.expected_task_nodes()
                      * service.task_gran * t_node)


def cell_checksum(res) -> str:
    """SHA-1 over the cell's schedule-identity fields."""
    h = hashlib.sha1()
    h.update((f"{res.n_threads},{res.policy},{res.admitted},"
              f"{res.completed},{res.shed_total},{res.lost_tasks},"
              f"{res.retries},{res.total_nodes},{res.engine_events},"
              f"{res.sim_time!r}\n").encode())
    return h.hexdigest()


def run_cell(service: ServiceConfig, threads: int, preset: str,
             faults=None, max_events: int = 5_000_000) -> dict:
    """One cell = a clean timed run + an invariant-monitored gate run.

    The monitored run costs a multiple of the plain one that grows with
    the pool (about 2x at 8 threads, 6x at 256, 12x at 1024 on a batch
    cell: docs/performance.md, "The monitor pays for what changed"), so
    the timed run is untraced; the monitored run re-executes the
    identical schedule (checked via the checksum) to certify I1-I5 plus
    exact task conservation.  Never raises ReproError.
    """
    cfg = WsConfig(chunk_size=2, idle_strategy="park")
    wall_t0 = time.perf_counter()
    try:
        res = run_service(service, threads=threads, preset=preset,
                          config=cfg, seed=0, faults=faults,
                          max_events=max_events)
    except ReproError as exc:
        return {"ok": False, "error_type": type(exc).__name__,
                "error": str(exc)}
    wall = time.perf_counter() - wall_t0

    monitor = InvariantMonitor()
    try:
        gres = run_service(service, threads=threads, preset=preset,
                           config=cfg, seed=0, faults=faults,
                           tracer=monitor, max_events=max_events)
        monitor.final_check()
    except ReproError as exc:
        return {"ok": False, "error_type": type(exc).__name__,
                "error": str(exc)}
    if cell_checksum(gres) != cell_checksum(res):
        return {"ok": False, "error_type": "ScheduleDrift",
                "error": "monitored run diverged from timed run "
                         "(tracing must not perturb the schedule)"}
    return {
        "ok": True,
        "arrival_rate": service.arrivals.rate,
        "admitted": res.admitted,
        "completed": res.completed,
        "shed": res.shed,
        "shed_fraction": round(res.shed_fraction, 4),
        "lost_tasks": res.lost_tasks,
        "retries": res.retries,
        "deadline_miss": res.deadline_miss,
        "goodput_per_sec": round(res.goodput, 1),
        "lat_p50_us": round(res.lat_p50 * 1e6, 2),
        "lat_p95_us": round(res.lat_p95 * 1e6, 2),
        "lat_p99_us": round(res.lat_p99 * 1e6, 2),
        "lat_mean_us": round(res.lat_mean * 1e6, 2),
        "queue_peak": res.queue_peak,
        "total_nodes": res.total_nodes,
        "lost_work": res.lost_work,
        "engine_events": res.engine_events,
        "sim_time": res.sim_time,
        "wall_seconds": round(wall, 3),
        "threads_killed": (res.fault_counters.threads_killed
                           if res.fault_counters else 0),
        "checksum": cell_checksum(res),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--threads", type=int, default=256,
                    help="simulated pool size (the committed curve is "
                         "256; CI smoke re-checks 64)")
    ap.add_argument("--tasks", type=int, default=1200,
                    help="stream length; long enough that overload "
                         "points saturate the admission queue (the CI "
                         "smoke uses 600 at 64 threads)")
    ap.add_argument("--task-gran", type=int, default=10,
                    help="compute events per task node (heavier tasks "
                         "-> realistic per-task service time)")
    ap.add_argument("--queue-capacity", type=int, default=64)
    ap.add_argument("--policy", default="shed-oldest")
    ap.add_argument("--deadline", type=float, default=600e-6)
    ap.add_argument("--preset", default="kittyhawk")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--max-events", type=int, default=5_000_000)
    ap.add_argument("--out", default="BENCH_service.json")
    ap.add_argument("--check", action="store_true",
                    help="CI gate: fail on checksum drift vs the "
                         "committed JSON or on any invariant failure; "
                         "wall-clock is reported, never gated")
    args = ap.parse_args(argv)

    committed = None
    if os.path.exists(args.out):
        with open(args.out) as fh:
            committed = json.load(fh)

    def _service(load: float) -> ServiceConfig:
        base = ServiceConfig(task_gran=args.task_gran, seed=args.seed)
        rate = load * capacity(args.threads, base, args.preset)
        return ServiceConfig(
            arrivals=ArrivalProcess(rate=rate), n_tasks=args.tasks,
            queue_capacity=args.queue_capacity, policy=args.policy,
            deadline=args.deadline, task_gran=args.task_gran,
            seed=args.seed)

    points = [(f"load{load:g}", _service(load), None) for load in LOADS]
    storm_svc = _service(STORM_LOAD)
    # Kill the storm's victims inside the stream's steady state: the
    # horizon is ~n_tasks/rate, so [20%, 50%] of it is always mid-run.
    horizon = args.tasks / storm_svc.arrivals.rate
    n_kill = max(2, int(args.threads * STORM_FRACTION))
    storm_spec = (f"storm(kill:{n_kill}"
                  f"@t={0.2 * horizon:.3g}..{0.5 * horizon:.3g})")
    points.append(("storm", storm_svc,
                   parse_fault_spec(storm_spec, seed=7)))

    cells: dict = {}
    failures, drift = [], []
    for point, svc, faults in points:
        key = f"T{args.threads}/{point}"
        cell = run_cell(svc, args.threads, args.preset, faults=faults,
                        max_events=args.max_events)
        cells[key] = cell
        if not cell["ok"]:
            failures.append(f"{key}: {cell['error_type']}: {cell['error']}")
            print(f"{key:18s} FAILED {cell['error_type']}")
            continue
        print(f"{key:18s} rate={cell['arrival_rate']:.3g}/s "
              f"done={cell['completed']:4d}/{cell['admitted']} "
              f"shed={cell['shed_fraction']:6.1%} "
              f"lost={cell['lost_tasks']:2d} "
              f"p50={cell['lat_p50_us']:7.1f}us "
              f"p99={cell['lat_p99_us']:7.1f}us "
              f"queue<={cell['queue_peak']:3d} "
              f"wall={cell['wall_seconds']:.2f}s")
        if args.check and committed is not None:
            old = committed.get("cells", {}).get(key)
            if old is None:
                print(f"  (no committed baseline for {key})")
            elif old.get("checksum") != cell["checksum"]:
                drift.append(
                    f"{key}: checksum {cell['checksum']} != committed "
                    f"{old['checksum']} (completed {cell['completed']} "
                    f"vs {old.get('completed')})")

    report = {
        "benchmark": f"service load-vs-latency, {args.policy}, "
                     f"binomial b0=4 tasks, gran={args.task_gran}, "
                     f"{args.preset}",
        "capacity_tasks_per_sec": round(
            capacity(args.threads,
                     ServiceConfig(task_gran=args.task_gran), args.preset),
            1),
        "storm_spec": storm_spec,
        "host": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "cells": cells,
    }
    if not args.check:
        out_cells = dict(committed.get("cells", {})) if committed else {}
        out_cells.update(cells)  # keep other thread counts' cells
        report["cells"] = out_cells
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
