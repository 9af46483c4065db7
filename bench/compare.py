#!/usr/bin/env python3
"""Compare two ledgers written by ``run.py --out``.

    python3 bench/compare.py A.json B.json
    python3 bench/compare.py --aa

For every workload and end-to-end metric both files hold: A's and B's
value with the quartiles each run measured over its own passes, B's
change relative to A (the base is always A), and a verdict against the
metric's bound from ``BENCHMARK.json``:

* ``better`` / ``worse`` -- the change exceeds the bound and exceeds
  both runs' own interquartile spread;
* ``within bound`` -- the change is inside the bound and so is the
  spread;
* ``unresolved`` -- the spread of either run is wider than the bound
  (or wider than a change that exceeds it), so the runs cannot tell.

``--aa`` runs the whole benchmark twice on the current tree and fails
unless every metric of the second run is within its bound of the first.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import extbuild
import ledger


def worsening(a: float, b: float, better: str) -> float:
    """B's change against A as a share of A, signed so that positive
    means worse."""
    change = (b - a) / a
    return change if better == "lower" else -change


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple:
    """``(worsening, spread, verdict)`` for one metric of two runs."""
    worse_by = worsening(a["value"], b["value"], better)
    spread = max((e["q3"] - e["q1"]) / e["value"] for e in (a, b))
    if abs(worse_by) > bound:
        if abs(worse_by) <= spread:
            return worse_by, spread, "unresolved"
        return worse_by, spread, "worse" if worse_by > 0 else "better"
    return worse_by, spread, "unresolved" if spread > bound else "within bound"


def compare(a: dict, b: dict, contract: dict) -> list:
    """Rows ``(workload, metric, a, b, worsening, spread, verdict)``."""
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        ma = a["workloads"][workload]["metrics"]
        mb = b["workloads"][workload]["metrics"]
        for spec in contract["end_to_end"]:
            name = spec["name"]
            if name in ma and name in mb:
                rows.append((workload, name, ma[name], mb[name])
                            + verdict(ma[name], mb[name], spec["better"],
                                      spec["bound"]))
    return rows


def print_rows(rows: list, bounds: dict) -> None:
    print(f"{'workload':<11s} {'metric':<13s} {'A [q1..q3]':>34s} "
          f"{'B [q1..q3]':>34s} {'B vs A':>8s} {'bound':>6s}  verdict")
    def cell(e: dict) -> str:
        return f"{e['value']:.5g} [{e['q1']:.4g}..{e['q3']:.4g}]"

    for workload, name, a, b, _worse_by, _spread, word in rows:
        change = (b["value"] - a["value"]) / a["value"]
        print(f"{workload:<11s} {name:<13s} {cell(a):>34s} {cell(b):>34s} "
              f"{change:>+8.2%} {bounds[name]:>6.0%}  {word}")
    print("(change = (B - A) / A; quartiles are each run's own, over its "
          "passes)")


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def run_twice() -> tuple:
    """The A/A check's two ledgers, from two whole benchmark runs."""
    out_dir = os.path.join(extbuild.BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, f"aa-{i}.json") for i in (1, 2)]
    for path in paths:
        subprocess.run(
            [sys.executable, os.path.join(extbuild.BENCH_DIR, "run.py"),
             "--out", path], cwd=extbuild.ROOT, check=True,
            stdout=subprocess.DEVNULL)
    return tuple(load(path) for path in paths)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ledgers", nargs="*", metavar="LEDGER.json",
                    help="A.json B.json, as written by run.py --out")
    ap.add_argument("--aa", action="store_true",
                    help="run the benchmark twice here and require every "
                         "metric to agree within its bound")
    args = ap.parse_args(argv)
    if args.aa == bool(args.ledgers) or (args.ledgers
                                         and len(args.ledgers) != 2):
        ap.error("give exactly two ledgers, or --aa")
    contract = ledger.load_contract()
    a, b = run_twice() if args.aa else map(load, args.ledgers)
    rows = compare(a, b, contract)
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    print_rows(rows, bounds)
    if not args.aa:
        return 0
    beyond = [r for r in rows if abs(r[4]) > bounds[r[1]]]
    for workload, name, *_rest in beyond:
        print(f"A/A FAILED: {workload} {name} differs by more than its bound")
    return 1 if beyond else 0


if __name__ == "__main__":
    sys.exit(main())
