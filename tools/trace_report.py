#!/usr/bin/env python
"""Render the Markdown run report for a recorded trace.

Takes either a JSONL event log written by ``repro-uts run --trace
run.jsonl`` (or :func:`repro.obs.dump_jsonl`) and renders the full
"read the run" report -- event census, per-rank state occupancy, the
steal-interaction matrix, steal-latency histogram, termination-phase
breakdown, and (on faulted runs) the injection/recovery ledger.  Or,
with ``--run``, performs a small traced run first and reports on that,
which is what the CI trace-smoke job does.

A log that does not match the event schema (not JSON, an unknown
kind, an undeclared or mistyped field) is bad input: one
``trace_report.py: error: <file>:<line>: ...`` line and exit status 2.

Usage::

    PYTHONPATH=src python tools/trace_report.py run.jsonl --out report.md
    PYTHONPATH=src python tools/trace_report.py --run upc-distmem \
        --threads 8 --out report.md
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.errors import TraceFormatError  # noqa: E402
from repro.harness.runner import run_experiment  # noqa: E402
from repro.obs import TraceSink, load_jsonl, render_trace_report  # noqa: E402
from repro.uts.params import TreeParams  # noqa: E402
from repro.ws.algorithms import ALGORITHMS  # noqa: E402


def _traced_run(args: argparse.Namespace):
    """Run one small traced experiment; returns (events, meta)."""
    sink = TraceSink()
    run_experiment(
        args.run,
        tree=TreeParams.binomial(b0=args.b0, q=args.q, seed=args.tree_seed),
        threads=args.threads, preset=args.preset,
        chunk_size=args.chunk_size, tracer=sink, verify=True,
    )
    return sink.events(), sink.meta


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("jsonl", nargs="?", default=None,
                   help="JSONL trace written by repro-uts run --trace")
    p.add_argument("--run", choices=sorted(ALGORITHMS), default=None,
                   help="instead of reading a file, run this algorithm "
                        "traced and report on it")
    p.add_argument("--threads", type=int, default=8)
    p.add_argument("--chunk-size", type=int, default=4)
    p.add_argument("--preset", default="kittyhawk")
    p.add_argument("--b0", type=int, default=200)
    p.add_argument("--q", type=float, default=0.49)
    p.add_argument("--tree-seed", type=int, default=0)
    p.add_argument("--out", default=None,
                   help="write the Markdown report here (default: stdout)")
    args = p.parse_args(argv)
    if (args.jsonl is None) == (args.run is None):
        p.error("give exactly one of: a JSONL trace path, or --run ALGO")

    if args.run is not None:
        events, meta = _traced_run(args)
    else:
        try:
            meta, events = load_jsonl(args.jsonl)
        except (OSError, TraceFormatError) as exc:
            p.error(str(exc))

    report = render_trace_report(events, meta)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
        print(f"wrote {args.out} ({len(events)} events)")
    else:
        print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
