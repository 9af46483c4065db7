#!/usr/bin/env python
"""Visualize the Figure-1 state machine in action.

Renders per-thread execution timelines for two algorithms on the same
workload: watch work diffuse from thread 0 outward, steals happen at
the frontier, and the final collapse into termination detection.
Compare how much of the picture is ``W`` (working) for upc-distmem vs
upc-sharedmem at a small chunk size.

    python examples/execution_timeline.py
"""

from repro import TraceSink, TreeParams, run_experiment
from repro.metrics import render_timeline

TREE = TreeParams.binomial(b0=200, m=2, q=0.49, seed=1)
THREADS = 8


def show(algorithm: str, chunk_size: int) -> None:
    sink = TraceSink()
    res = run_experiment(algorithm, tree=TREE, threads=THREADS,
                         preset="kittyhawk", chunk_size=chunk_size,
                         tracer=sink, verify=True)
    print(f"--- {algorithm} (k={chunk_size}) --- "
          f"efficiency {res.efficiency * 100:.1f}%, "
          f"{res.stats.steals_ok} steals")
    print(render_timeline(sink, THREADS, res.sim_time, width=72))
    print()


def main() -> None:
    print(f"tree: {TREE.describe()}\n")
    show("upc-distmem", chunk_size=4)
    show("upc-sharedmem", chunk_size=4)
    print("The distmem timeline is denser with W: streamlined "
          "termination avoids the\nbarrier churn and no stack locking "
          "stalls the workers.")


if __name__ == "__main__":
    main()
