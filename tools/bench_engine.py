#!/usr/bin/env python
"""Measure the discrete-event engine on the Figure-4 serial sweep.

This tool pins the *engine itself*: one serial pass over the ``fig4``
sweep (shared materialized tree, ``jobs=1``) so wall-clock differences
come from per-event cost, not tree expansion or process fan-out.

The committed ``BENCH_engine.json`` carries two blocks:

* ``seed_serial`` -- the baseline captured from the pre-optimization
  engine (recorded once with ``--record-seed``; later runs preserve it).
* ``optimized``   -- the current engine, re-measured on every run.

Both blocks carry a ``results_checksum`` over every run's identity
(algorithm, threads, k, total_nodes, engine_events, sim_time), so the
speedup claim is only reported alongside proof that the optimized
engine produced a bit-identical schedule.

Usage::

    PYTHONPATH=src python tools/bench_engine.py --out BENCH_engine.json
    PYTHONPATH=src python tools/bench_engine.py --check   # CI gate
    PYTHONPATH=src python tools/bench_engine.py --check --backend fast
    PYTHONPATH=src python tools/bench_engine.py --check --backend pure

``--check`` exits non-zero only on hard correctness drift (engine
events or checksum differ from the committed baseline); wall-clock is
reported, never gated.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import fastpath  # noqa: E402
from repro.harness.config import setup_for  # noqa: E402
from repro.harness.runner import tree_for  # noqa: E402
from repro.harness.sweep import run_sweep  # noqa: E402


def results_checksum(runs) -> str:
    """SHA-1 over every run's schedule-identity fields.

    Everything here is a deterministic function of the configuration:
    two engines producing the same checksum executed the same schedule.
    """
    h = hashlib.sha1()
    for r in runs:
        h.update((f"{r.algorithm},{r.n_threads},{r.chunk_size},"
                  f"{r.total_nodes},{r.engine_events},"
                  f"{r.sim_time!r}\n").encode())
    return h.hexdigest()


def measure(figure: str, scale: str, threads: int = None) -> dict:
    """One serial (jobs=1), cache-on sweep; per-variant events/sec."""
    setup = setup_for(figure, scale)
    if threads is not None:
        setup = dataclasses.replace(setup, thread_counts=[threads])
    # Phase 1: tree expansion.  Warm the process-wide tree cache under
    # its own clock so the sweep wall-clock below is dispatch + setup
    # only -- this is where the tree builder (_core.expand, else the
    # scalar loop) shows up, separately from the compiled dispatch core.
    te0 = time.perf_counter()
    tree_for(setup.tree)
    tree_seconds = time.perf_counter() - te0
    t0 = time.perf_counter()
    sweep = run_sweep(setup, jobs=1)
    # wall covers expansion + sweep, as it did before the phase split
    # -- the committed seed baseline was measured that way.
    wall = tree_seconds + time.perf_counter() - t0
    events = sum(r.engine_events for r in sweep.runs)
    # Phase split: each run's host_seconds covers machine.run() only,
    # so the residual is per-run setup (tree lookup, machine and
    # algorithm construction, spawns) plus sweep bookkeeping -- the
    # part that scales with thread count even when the schedule doesn't.
    run_seconds = sum(r.host_seconds for r in sweep.runs)
    per_variant: dict = {}
    for r in sweep.runs:
        v = per_variant.setdefault(
            r.algorithm, {"engine_events": 0, "host_seconds": 0.0})
        v["engine_events"] += r.engine_events
        v["host_seconds"] += r.host_seconds
    for v in per_variant.values():
        v["host_seconds"] = round(v["host_seconds"], 3)
        v["events_per_sec"] = round(
            v["engine_events"] / v["host_seconds"], 1) \
            if v["host_seconds"] > 0 else None
    return {
        "wall_seconds": round(wall, 3),
        "run_seconds": round(run_seconds, 3),
        "setup_seconds": round(wall - run_seconds, 3),
        "backend": fastpath.resolve("auto"),
        "phases": {
            # Tree expansion vs event dispatch: the two hot loops the
            # fastpath backend compiles, timed separately.
            "tree_expand_seconds": round(tree_seconds, 3),
            "dispatch_seconds": round(run_seconds, 3),
            "other_setup_seconds": round(
                wall - run_seconds - tree_seconds, 3),
        },
        "runs": len(sweep.runs),
        "engine_events": events,
        "events_per_sec": round(events / wall, 1),
        "results_checksum": results_checksum(sweep.runs),
        "per_variant": per_variant,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--figure", default="fig4")
    ap.add_argument("--scale", default="quick")
    ap.add_argument("--threads", type=int, default=None,
                    help="override the figure's thread counts with one "
                         "value (ad-hoc scaling probes; --check compares "
                         "against the committed default-threads baseline, "
                         "so combine them only deliberately)")
    ap.add_argument("--backend", choices=["auto", "pure", "fast"],
                    default="auto",
                    help="execution backend (repro.fastpath): 'auto' "
                         "uses the compiled core when built, 'pure' "
                         "forces the pure-Python loops (written to a "
                         "side file so the committed measurement is "
                         "not clobbered), 'fast' fails if the "
                         "extension is unavailable (CI)")
    ap.add_argument("--out", default="BENCH_engine.json")
    ap.add_argument("--record-seed", action="store_true",
                    help="store this measurement as the seed_serial "
                         "baseline (run once, before optimizing)")
    ap.add_argument("--check", action="store_true",
                    help="CI gate: fail on engine_events/checksum drift "
                         "vs the committed baseline (wall-clock is "
                         "reported, not gated)")
    args = ap.parse_args(argv)
    if args.backend != "auto":
        # The env override wins everywhere (config, Simulator,
        # vectorized tree construction), so one knob forces the whole
        # measurement onto the requested backend.
        os.environ["REPRO_FASTPATH"] = args.backend
    backend = fastpath.resolve(args.backend)  # fail early on forced fast
    baseline_path = args.out
    if args.threads is not None and args.out == "BENCH_engine.json":
        # An off-baseline probe must not clobber the committed gate file.
        args.out = f"BENCH_engine_t{args.threads}.json"
        baseline_path = args.out
        print(f"--threads override: writing to {args.out}")
    elif args.backend == "pure" and args.out == "BENCH_engine.json":
        # A pure-backend run proves cross-backend schedule identity
        # against the committed gate file, so keep reading the
        # baseline from it -- but write elsewhere so the committed
        # compiled-backend measurement survives.
        args.out = "BENCH_engine_pure.json"
        print(f"--backend pure: writing to {args.out} "
              f"(baseline stays {baseline_path})")

    committed = None
    if os.path.exists(baseline_path):
        with open(baseline_path) as fh:
            committed = json.load(fh)

    print(f"benchmarking engine on {args.figure}[{args.scale}] "
          f"serial sweep (backend: {backend})", flush=True)
    current = measure(args.figure, args.scale, threads=args.threads)
    ph = current["phases"]
    print(f"engine: {current['wall_seconds']:.1f}s "
          f"(dispatch {ph['dispatch_seconds']:.1f}s + setup "
          f"{ph['other_setup_seconds']:.1f}s; tree expansion "
          f"{ph['tree_expand_seconds']:.1f}s) "
          f"{current['events_per_sec']:.0f} events/sec", flush=True)

    if args.record_seed or committed is None:
        seed = dict(current)
    else:
        seed = committed["seed_serial"]

    identical = (current["engine_events"] == seed["engine_events"]
                 and current["results_checksum"] == seed["results_checksum"])
    report = {
        "benchmark": f"{args.figure}[{args.scale}] serial sweep "
                     "(jobs=1, tree cache on)",
        "host": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "fastpath": fastpath.describe(),
        "seed_serial": seed,
        "optimized": current,
        "speedup_vs_seed": round(
            current["events_per_sec"] / seed["events_per_sec"], 3),
        "engine_events_identical": identical,
        "results_identical": identical,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    print(f"speedup vs seed engine: {report['speedup_vs_seed']}x "
          f"(results identical: {identical})")

    if args.check:
        if committed is None:
            print("check: no committed baseline to compare against",
                  file=sys.stderr)
            return 2
        drift = []
        if current["engine_events"] != committed["seed_serial"]["engine_events"]:
            drift.append(
                f"engine_events {current['engine_events']} != committed "
                f"{committed['seed_serial']['engine_events']}")
        if current["results_checksum"] != committed["seed_serial"]["results_checksum"]:
            drift.append(
                f"results_checksum {current['results_checksum']} != "
                f"committed {committed['seed_serial']['results_checksum']}")
        if drift:
            print("check FAILED (schedule drift):", file=sys.stderr)
            for d in drift:
                print(f"  {d}", file=sys.stderr)
            return 1
        print("check OK: schedule identical to committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
