"""Sample statistics and the printed form of the ledger.

Every number the benchmark reports goes through here, so the rules are
stated once: a timing is a median with its quartiles and sample count,
a tail is the highest percentile that still has ten samples beyond it,
and a metric's unit, direction and bound come from ``BENCHMARK.json``
(the one place they are declared).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
PINS = os.path.join(BENCH_DIR, "pins.json")

#: Candidate tail levels, highest first.
TAIL_LEVELS = (99, 95, 90, 75, 50)
#: Samples that must lie beyond a percentile before it is reported.
TAIL_MIN_BEYOND = 10


def load_contract() -> dict:
    """``BENCHMARK.json``: workloads, metric names, units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def pin(line: str) -> str:
    """What ``pins.json`` stores per cell: a short hash of the cell's
    schedule-identity line."""
    return hashlib.sha1(line.encode()).hexdigest()[:16]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them
    (the driver's definition); a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def tail_level(n_samples: int) -> Optional[int]:
    """Highest level in :data:`TAIL_LEVELS` with at least
    :data:`TAIL_MIN_BEYOND` of ``n_samples`` beyond it, or None."""
    for level in TAIL_LEVELS:
        if n_samples * (100 - level) >= TAIL_MIN_BEYOND * 100:
            return level
    return None


def percentile(values: Sequence[float], level: float) -> float:
    """Nearest-rank percentile (no interpolation) of unsorted values."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(level * len(ordered) / 100)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Tuple[str, float]:
    """``(label, value)`` of the tail of ``values``: the percentile
    :func:`tail_level` allows, or the maximum when there are too few
    samples for any level (the slowest item is then the whole tail)."""
    level = tail_level(len(values))
    if level is None:
        return "max", max(values)
    return f"p{level}", percentile(values, level)


def sample(values: Sequence[float], unit: str, note: str = "") -> dict:
    """One ledger entry from repeated samples: the median is the value."""
    q1, med, q3 = quartiles(values)
    return {"value": med, "unit": unit, "n": len(values),
            "q1": q1, "q3": q3, "note": note}


def exact(value: float, unit: str, note: str = "", n: int = 1) -> dict:
    """One ledger entry for a number that is not a median of samples
    (a count, or a statistic the caller built from ``n`` passes)."""
    return {"value": value, "unit": unit, "n": n,
            "q1": value, "q3": value, "note": note}


def format_ledger(workload: str, entries: Dict[str, dict],
                  bounds: Dict[str, float]) -> List[str]:
    """Printable rows: name, value, unit, n, quartiles, bound, note."""
    rows = [f"== {workload} =="]
    width = max((len(name) for name in entries), default=0)
    for name, e in entries.items():
        row = (f"{name:<{width}s}  {e['value']:>14.6g} {e['unit']:<9s} "
               f"n={e['n']:<3d}")
        if e["q1"] != e["q3"]:
            row += f" q1={e['q1']:.6g} q3={e['q3']:.6g}"
        if "raw" in e:
            row += f" raw={e['raw']:.6g}"
        if name in bounds:
            row += f" bound={bounds[name]:.0%}"
        if e.get("note"):
            row += f"  [{e['note']}]"
        rows.append(row)
    return rows
