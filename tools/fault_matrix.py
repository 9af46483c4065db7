#!/usr/bin/env python
"""Resilience matrix: fault seeds x fault classes, invariants asserted.

Runs every cell of ``{message-loss, fail-stop, stall} x seeds`` on the
representative algorithms for that fault class and asserts the
conservation contract of ``docs/fault-model.md``:

* message-loss / stall cells must reproduce the sequential node count
  *exactly* (nothing is ever lost, only delayed);
* fail-stop cells must satisfy ``total_nodes + lost_work == oracle``
  with ``lost_work`` computed from the lost descriptors' subtrees;
* every cell is run twice and must be bit-identical (same sim time,
  same counters, same per-thread stats) -- the property that turns
  any failure this matrix ever finds into a replayable unit test.

A fourth class, ``late-kill``, sweeps the kill *time* instead of the
fault seed: one kill per cell, at a fraction of that cell's own
fault-free ``sim_time`` late enough to land inside the termination
protocol (every kill-capable variant x 3 small trees x {4, 6} threads x
every killable rank x 7 fractions x {poll, park}; 2,016 cells).  The
contract is the fail-stop one plus *termination*: a survivor left
waiting on a dead declarer spins until ``max_events`` and fails the
cell.  The report carries its per-variant counts and failing cells.

Writes a JSON report (cell-by-cell counters + verdicts) for the CI
artifact, and exits non-zero if any cell violates its contract.

Usage::

    PYTHONPATH=src python tools/fault_matrix.py --seeds 0 1 2 \
        --out FAULT_matrix.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.errors import ReproError  # noqa: E402
from repro.faults import parse_fault_spec  # noqa: E402
from repro.harness.runner import (expected_node_count,  # noqa: E402
                                  run_experiment)
from repro.uts.params import TreeParams  # noqa: E402
from repro.ws.config import WsConfig  # noqa: E402

#: Fault classes and the algorithms whose recovery paths they exercise.
MATRIX = [
    ("message-loss", "drop=0.05,dup=0.05,delay=0.2",
     ["mpi-ws"], "exact"),
    ("fail-stop", "kill=3@50us,kill=5@120us",
     ["mpi-ws", "upc-distmem", "upc-sharedmem"], "accounted"),
    ("stall", "stall=0.3,stale=0.2",
     ["upc-distmem", "upc-sharedmem", "upc-term-rapdif"], "exact"),
]

#: The late-kill class: every variant that accepts a kill plan, and the
#: fractions of a cell's fault-free ``sim_time`` the kill is placed at.
LATE_KILL_VARIANTS = ["upc-sharedmem", "upc-term", "upc-term-rapdif",
                      "upc-distmem", "upc-distmem-hier", "mpi-ws"]
LATE_KILL_FRACTIONS = (0.9, 0.95, 0.97, 0.98, 0.99, 0.995, 0.999)
#: A cell that has not terminated by then never will (these cells need
#: under 5,000 events; a hang spins on the heartbeat/checker daemons).
LATE_KILL_MAX_EVENTS = 300_000


def _fingerprint(res):
    return (
        res.total_nodes, res.sim_time, res.engine_events, res.lost_work,
        tuple(sorted(res.fault_counters.as_dict().items())),
        tuple((s.rank, s.nodes_visited, s.steals_ok, s.nodes_stolen)
              for s in res.per_thread),
    )


def run_cell(algorithm, spec, seed, tree, expected, threads=8,
             config=WsConfig(chunk_size=4), max_events=50_000_000):
    plan = parse_fault_spec(spec, seed=seed)
    kwargs = dict(tree=tree, threads=threads, preset="kittyhawk",
                  config=config, verify=True, faults=plan,
                  max_events=max_events)
    t0 = time.perf_counter()
    res = run_experiment(algorithm, **kwargs)
    wall = time.perf_counter() - t0
    replay = run_experiment(algorithm, **kwargs)
    deterministic = _fingerprint(res) == _fingerprint(replay)
    return {
        "algorithm": algorithm,
        "spec": spec,
        "fault_seed": seed,
        "total_nodes": res.total_nodes,
        "lost_work": res.lost_work,
        "oracle": expected,
        "sim_time": res.sim_time,
        "host_seconds": round(wall, 3),
        "counters": res.fault_counters.nonzero(),
        "conserved": res.total_nodes + res.lost_work == expected,
        "deterministic": deterministic,
    }


def late_kill_grid():
    """Yield ``(where, tree, config)`` for every late-kill cell."""
    for algorithm, tree_seed, threads, idle in itertools.product(
            LATE_KILL_VARIANTS, (1, 2, 3), (4, 6), ("poll", "park")):
        tree = TreeParams.binomial(b0=64, m=2, q=0.48, seed=tree_seed)
        config = WsConfig(chunk_size=4, idle_strategy=idle)
        horizon = run_experiment(algorithm, tree=tree, threads=threads,
                                 config=config).sim_time
        for rank, fraction in itertools.product(
                range(1, threads),  # rank 0 cannot be killed
                LATE_KILL_FRACTIONS):
            yield ({"algorithm": algorithm, "tree_seed": tree_seed,
                    "threads": threads, "idle": idle,
                    "spec": f"kill={rank}@{fraction * horizon:.12f}"},
                   tree, config)


def late_kill_sweep():
    """Run the late-kill class; returns its report block."""
    by_variant, failures = {}, []
    for where, tree, config in late_kill_grid():
        tally = by_variant.setdefault(where["algorithm"],
                                      {"cells": 0, "failed": 0})
        try:
            cell = run_cell(where["algorithm"], where["spec"], 0, tree,
                            expected_node_count(tree),
                            threads=where["threads"], config=config,
                            max_events=LATE_KILL_MAX_EVENTS)
            ok = cell["conserved"] and cell["deterministic"]
        except ReproError as exc:  # a hang ends as EventLimitExceeded
            ok, cell = False, {"error": f"{type(exc).__name__}: {exc}"}
        tally["cells"] += 1
        if not ok:
            tally["failed"] += 1
            failures.append({**cell, **where})
    for algorithm, tally in by_variant.items():
        print(f"  late-kill    {algorithm:<16s} cells={tally['cells']:>4d} "
              f"failed={tally['failed']}", flush=True)
    return {"fractions": list(LATE_KILL_FRACTIONS),
            "max_events": LATE_KILL_MAX_EVENTS,
            "cells": sum(t["cells"] for t in by_variant.values()),
            "by_variant": by_variant, "failures": failures}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--b0", type=int, default=200)
    ap.add_argument("--q", type=float, default=0.49)
    ap.add_argument("--out", default="FAULT_matrix.json")
    args = ap.parse_args(argv)

    tree = TreeParams.binomial(b0=args.b0, q=args.q, seed=0)
    expected = expected_node_count(tree)
    print(f"fault matrix over {tree.describe()} ({expected} nodes), "
          f"seeds {args.seeds}", flush=True)

    cells, failures = [], []
    for klass, spec, algorithms, contract in MATRIX:
        for algorithm in algorithms:
            for seed in args.seeds:
                cell = run_cell(algorithm, spec, seed, tree, expected)
                cell["class"] = klass
                cell["contract"] = contract
                if contract == "exact" and cell["lost_work"] != 0:
                    cell["conserved"] = False
                ok = cell["conserved"] and cell["deterministic"]
                cells.append(cell)
                if not ok:
                    failures.append(cell)
                status = "ok" if ok else "FAIL"
                print(f"  {klass:<12s} {algorithm:<14s} seed={seed} "
                      f"nodes={cell['total_nodes']:>6d} "
                      f"lost={cell['lost_work']:>5d} {status}", flush=True)

    late_kill = late_kill_sweep()
    failures.extend(late_kill["failures"])

    report = {
        "tree": tree.describe(),
        "oracle_nodes": expected,
        "seeds": args.seeds,
        "host": {"cpus": os.cpu_count(),
                 "platform": platform.platform(),
                 "python": platform.python_version()},
        "cells": cells,
        "late_kill": late_kill,
        "failures": len(failures),
        "ok": not failures,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}: {len(cells)} + {late_kill['cells']} late-kill "
          f"cells, {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
