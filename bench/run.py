#!/usr/bin/env python3
"""The repo's one benchmark: four workloads, one ledger.

    python3 bench/run.py                          # all four workloads
    python3 bench/run.py --workload fig4-pure --seed 3 --seconds 20
    python3 bench/run.py --workload park-pool --trace 1
    python3 bench/run.py --out A.json             # input of compare.py
    python3 bench/run.py --repin                  # rewrite pins.json

Builds the C extension out of tree (``bench/build``), runs each
workload in its own single-threaded worker process (``worker.py``),
checks every cell's output, and prints every metric by name with its
unit, sample count and bound.  ``--trace 0`` (default) gives the
end-to-end metrics of ``BENCHMARK.json`` from untraced passes;
``--trace 1`` gives the per-layer metrics from a separate traced run
and writes ``bench/out/trace-<workload>.json``.  The last line of
standard output is one JSON object per workload with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Metric and workload definitions, and how to read the output, are in
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import extbuild
import ledger

WORKER = os.path.join(extbuild.BENCH_DIR, "worker.py")
#: Set-ups per timed run (the measuring worker's own plus set-up-only
#: workers); ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A worker that has not answered by then is killed (the contract
#: allows a run 180 s).
WORKER_TIMEOUT_S = 170


def worker_env() -> dict:
    """One thread, and the byte-code cache kept out of ``src/``."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(extbuild.ROOT, "src"),
        PYTHONPYCACHEPREFIX=os.path.join(extbuild.BUILD_DIR, "pycache"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    return env


def run_worker(job: dict) -> dict:
    """Start one worker, wait for it, and return what it printed."""
    proc = subprocess.run(
        [sys.executable, WORKER, json.dumps(job)],
        env=worker_env(), cwd=extbuild.ROOT,
        stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"worker for {job['workload']} exited with "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(name: str, job: dict, contract: dict) -> dict:
    """One workload's ledger entry: worker result plus ``setup_s``."""
    traced = bool(job.get("trace"))
    setups = [] if traced else [
        run_worker({"workload": name, "setup_only": True})["setup_s"]
        for _ in range(SETUP_REPEATS - 1)]
    result = run_worker(dict(job, workload=name))
    setups.append(result["setup_s"])
    if not traced:
        result["metrics"]["setup_s"] = ledger.sample(
            setups, "s", "imports, extension load, tree, warm-up")
    wanted = [m["name"] for m in
              contract["per_layer" if traced else "end_to_end"]]
    if sorted(wanted) != sorted(result["metrics"]):
        raise SystemExit(
            f"{name}: metrics differ from BENCHMARK.json: "
            f"{sorted(set(wanted) ^ set(result['metrics']))}")
    result["metrics"] = {m: result["metrics"][m] for m in wanted}
    result["correct"] = result["failed"] == 0
    return result


def contract_line(result: dict) -> str:
    """The JSON object the driver reads from the last line."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": e["value"], "unit": e["unit"]}
                    for name, e in result["metrics"].items()},
    })


def print_ledger(name: str, result: dict, build: dict, bounds: dict) -> None:
    entries = dict(result["metrics"], **result.get("extras", {}))
    for row in ledger.format_ledger(name, entries, bounds):
        print(row)
    backend = result["backend"]
    extension = ("built" if backend["core_available"] else
                 f"unavailable: {backend['core_unavailable_reason']}")
    print(f"backend: resolved {result['backend_resolved']} "
          f"(REPRO_FASTPATH={backend['env']}, extension {extension}, "
          f"compiler {build['compiler']})")
    for p in result.get("passes", []):
        print(f"pass: wall {p['wall_s']:.4f} s, bench.cpu_share "
              f"{p['cpu_share']:.3f}, yardstick at {p['slowdown']:.3f}x its "
              f"reference time")
    if result.get("preempted"):
        print(f"the last {result['preempted']} of these had bench.cpu_share "
              f"below 0.9 (preempted), were re-run and are not counted")
    if "trace_file" in result:
        print(f"spans: {result['trace_file']}; records by kind in the "
              f"probe pass: {result['records_by_kind']}")
    failed_share = result["failed"] / result["attempted"]
    print(f"checksum {result['checksum']}  cells {len(result['cells'])}  "
          f"attempted {result['attempted']}  failed_share {failed_share:.4f}"
          f"  drift_cells {result['drift_cells']}")
    for why in result["reasons"]:
        print(f"FAILED {why}")


def write_pins(results: dict) -> None:
    """Rewrite ``pins.json`` from seed-0 runs of all four workloads.

    The timed fig4 workloads run a slice of the quick sweep; repinning
    also runs the whole sweep once on each backend and refuses unless
    both reproduce the checksum committed in ``BENCH_engine.json``.
    """
    sweeps = {results[n]["fig4_full_sweep"]
              for n in ("fig4-pure", "fig4-fast")}
    committed = os.path.join(extbuild.ROOT, "BENCH_engine.json")
    if os.path.exists(committed):
        with open(committed) as fh:
            sweeps.add(json.load(fh)["seed_serial"]["results_checksum"])
    if len(sweeps) != 1:
        raise SystemExit("full fig4[quick] sweep checksums disagree across "
                         f"backends / BENCH_engine.json: {sorted(sweeps)}")
    failed = {n: r["reasons"] for n, r in results.items() if r["failed"]}
    if failed:
        raise SystemExit(f"not pinning failed cells: {failed}")
    with open(ledger.PINS, "w") as fh:
        json.dump({
            "seed": 0,
            "fig4_full_sweep": sweeps.pop(),
            "workloads": {
                name: {"pass": r["checksum"],
                       "cells": {cell: ledger.pin(line) for cell, line
                                 in zip(r["cells"], r["lines"])}}
                for name, r in results.items()},
        }, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(ledger.PINS, extbuild.ROOT)}")


def main(argv=None) -> int:
    contract = ledger.load_contract()
    names = [w["name"] for w in contract["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="run one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=0,
                    help="offsets every simulation, schedule, service and "
                         "fault seed; 0 is checked against pins.json")
    ap.add_argument("--seconds", type=float,
                    default=float(contract["run_seconds"]),
                    help="how long the timed passes measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: the traced run (per-layer metrics, span file)")
    ap.add_argument("--out", help="also write the full ledger as JSON here")
    ap.add_argument("--repin", action="store_true",
                    help="regenerate bench/pins.json from seed-0 runs")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(extbuild.ROOT, "src", "repro")):
        print("bench/run.py: no src/repro beside bench/ -- nothing to "
              "measure", file=sys.stderr)
        return 2

    build = extbuild.ensure_extension()
    print(f"extension: {'ok' if build['ok'] else 'NOT BUILT'} "
          f"(fastpath.build_s {build['build_s']:.2f} s"
          f"{', cached' if build['cached'] else ''}; {build['compiler']})",
          flush=True)
    job = {"seed": 0 if args.repin else args.seed,
           "seconds": 0.0 if args.repin else args.seconds,
           "trace": args.trace, "repin": args.repin,
           "build_s": build["build_s"]}
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    results = {}
    if args.workload and not args.repin:
        names = [args.workload]
    for name in names:
        results[name] = run_workload(name, job, contract)
        print_ledger(name, results[name], build, bounds)
        sys.stdout.flush()
    if args.repin:
        write_pins(results)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"host": extbuild.host_block(), "build": build,
                       "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "workloads": results}, fh,
                      indent=1)
    for name in results:
        print(contract_line(results[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
