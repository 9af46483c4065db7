"""Terminal tables and line charts for the examples' output.

Plain-text tables of the exact series a study sweeps and ASCII charts
of them, readable in a terminal with no plotting dependencies.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

__all__ = ["ascii_chart", "series_table", "log_histogram"]

_MARKERS = "ox+*#@%&"


def ascii_chart(series: Dict[str, List[Tuple[float, float]]],
                *, width: int = 68, height: int = 18,
                x_label: str = "x", y_label: str = "y",
                log_x: bool = False, title: str = "") -> str:
    """Render named (x, y) series as a fixed-size ASCII scatter chart."""
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]

    def tx(x: float) -> float:
        return math.log2(x) if log_x else x

    x_lo, x_hi = min(map(tx, xs)), max(map(tx, xs))
    y_lo, y_hi = 0.0, max(ys) * 1.05 or 1.0
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for (name, pts), marker in zip(series.items(), _MARKERS):
        for x, y in pts:
            col = int((tx(x) - x_lo) / x_span * (width - 1))
            row = height - 1 - int((y - y_lo) / y_span * (height - 1))
            grid[row][col] = marker

    lines = []
    if title:
        lines.append(f"  {title}")
    lines.append(f"  {y_label}")
    for i, row in enumerate(grid):
        y_here = y_hi - i * y_span / (height - 1)
        label = f"{y_here:9.1f} |" if i % 4 == 0 else "          |"
        lines.append(label + "".join(row))
    lines.append("          +" + "-" * width)
    x_lo_orig = min(xs)
    x_hi_orig = max(xs)
    axis = f"{x_lo_orig:g}"
    axis = axis.ljust(width - len(f"{x_hi_orig:g}")) + f"{x_hi_orig:g}"
    lines.append("           " + axis)
    lines.append(f"           {x_label}" +
                 ("  [log2 x]" if log_x else ""))
    legend = "   ".join(f"{m}={name}" for (name, _), m
                        in zip(series.items(), _MARKERS))
    lines.append(f"  legend: {legend}")
    return "\n".join(lines)


def log_histogram(values: Sequence[float], *, width: int = 50,
                  title: str = "") -> str:
    """Histogram over power-of-two bins (for heavy-tailed data).

    Each row is one bin ``[2^i, 2^(i+1))`` with a bar scaled to the
    largest bin count -- the natural view of UTS subtree sizes.
    """
    vals = [v for v in values if v >= 1]
    if not vals:
        return "(no data)"
    top_bin = max(int(math.log2(v)) for v in vals)
    counts = [0] * (top_bin + 1)
    for v in vals:
        counts[int(math.log2(v))] += 1
    peak = max(counts)
    lines = [title] if title else []
    for i, c in enumerate(counts):
        lo, hi = 2 ** i, 2 ** (i + 1)
        bar = "#" * (round(width * c / peak) if c else 0)
        lines.append(f"[{lo:>9,} .. {hi:>9,})  {c:>7,}  {bar}")
    return "\n".join(lines)


def series_table(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Monospace table with right-aligned numeric columns."""
    def fmt(v) -> str:
        if isinstance(v, float):
            return f"{v:,.2f}"
        if isinstance(v, int):
            return f"{v:,d}"
        return str(v)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(header)]
    out = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    out.append("  ".join("-" * w for w in widths))
    for row in cells:
        out.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(out)
