#!/usr/bin/env python
"""Render the Markdown run report for a recorded trace.

Takes a JSONL event log written by ``repro-uts run --trace run.jsonl``
(or :func:`repro.obs.dump_jsonl`) and renders the full "read the run"
report -- event census, per-rank state occupancy, the
steal-interaction matrix, steal-latency histogram, termination-phase
breakdown, and (on faulted runs) the injection/recovery ledger.  To
run and report in one step, ``repro-uts run --trace report.md``.

A log that does not match the event schema (not JSON, an unknown
kind, an undeclared or mistyped field) is bad input: one
``trace_report.py: error: <file>:<line>: ...`` line and exit status 2.

Usage::

    PYTHONPATH=src python tools/trace_report.py run.jsonl --out report.md
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.errors import TraceFormatError  # noqa: E402
from repro.obs import load_jsonl, render_trace_report  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("jsonl", help="JSONL trace written by repro-uts run --trace")
    p.add_argument("--out", default=None,
                   help="write the Markdown report here (default: stdout)")
    args = p.parse_args(argv)
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
