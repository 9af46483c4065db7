"""The views read off the paper's figures, and its sequential baseline.

Figures 4-6 (E2-E4) are grids (:func:`repro.harness.sweep.run_sweep`):
each a :class:`~repro.harness.sweep.CellTable` of verified runs.  The
refinement ablation (E5) and the headline claims (E6) are tables of
cells picked from those; the sequential baseline (E1) is a table of one
cell per platform, with no run.  Every one renders as the Markdown
table EXPERIMENTS.md embeds (``markdown()``) and as the cell rows
``--json`` / ``--csv`` write (``to_dict()["runs"]``).
"""

from __future__ import annotations

from typing import List

from repro.harness.sweep import Cell, CellTable, markdown_table, mnodes
from repro.net.presets import PRESETS

__all__ = ["best", "ablation", "steps", "total_improvement",
           "sequential_baseline", "headline_claims"]


def best(t: CellTable, algorithm: str) -> Cell:
    """``algorithm``'s completed cell with the highest throughput (the
    first in grid order on a tie); ``KeyError`` if it has none."""
    cells = t.done(algorithm=algorithm)
    if not cells:
        raise KeyError(f"no runs for {algorithm}")
    return max(cells, key=lambda c: c.result.nodes_per_sec)


# --- Sect. 4.2 ablation: each refinement improves; total ~37% ----------------

_ABLATION_CHAIN = ["upc-sharedmem", "upc-term", "upc-term-rapdif", "upc-distmem"]
_REFINEMENTS = ["", "+ streamlined termination (3.3.1)",
                "+ rapid diffusion (3.3.2)", "+ lock-less stack (3.3.3)"]


def ablation(fig4: CellTable) -> CellTable:
    """Sect. 4.2: each refinement step's cell at its best chunk size,
    read off Figure 4's (algorithm x chunk-size) grid."""
    return CellTable(fig4.scale, [best(fig4, alg) for alg in _ABLATION_CHAIN],
                     _ablation_table)


def steps(t: CellTable) -> List[float]:
    """Each refinement's throughput over the step before it."""
    return [b.result.nodes_per_sec / a.result.nodes_per_sec
            for a, b in zip(t.cells, t.cells[1:])]


def total_improvement(t: CellTable) -> float:
    """distmem over sharedmem (paper: ~1.37x)."""
    return t.cells[-1].result.nodes_per_sec / t.cells[0].result.nodes_per_sec


def _ablation_table(t: CellTable) -> str:
    rows = [[f"{c.where['algorithm']} {label}".strip(),
             c.where["chunk_size"], mnodes(c.result), step]
            for c, label, step in zip(t.cells, _REFINEMENTS, ["—"] + [
                f"**{100 * (ratio - 1):+.1f}%**" for ratio in steps(t)])]
    rows.append(["**total**", "", "",
                 f"**{100 * (total_improvement(t) - 1):+.1f}%**"])
    return markdown_table(["step", "best k", "Mnodes/s", "improvement"], rows)


# --- Sect. 4.1 sequential baseline -------------------------------------------

#: Sect. 4.1's measured sequential rates, Mnodes/s.
PAPER_SEQUENTIAL_RATES = {"topsail": 2.10, "kittyhawk": 2.39, "altix": 1.12}


def sequential_baseline() -> CellTable:
    """The sequential-rate table of Sect. 4.1 (model inputs, by design):
    a cell per paper platform, the model's rate beside the paper's.  Its
    scale is ``"model"``: the rates are the same at every scale."""
    return CellTable("model", [
        Cell({"platform": name}, None, measured={
            "model_mnodes_per_s": PRESETS[name].sequential_rate() / 1e6,
            "paper_mnodes_per_s": paper})
        for name, paper in PAPER_SEQUENTIAL_RATES.items()], _baseline_table)


def _baseline_table(t: CellTable) -> str:
    return markdown_table(
        ["platform", "model Mnodes/s", "paper Mnodes/s"],
        [[c.where["platform"], f"{c.measured['model_mnodes_per_s']:.2f}",
          f"{c.measured['paper_mnodes_per_s']:.2f}"] for c in t.cells])


# --- Sect. 1 / 6.2 headline claims --------------------------------------------


def headline_claims(fig5: CellTable) -> CellTable:
    """The headline metrics at Figure 5's top point (upc-distmem)."""
    top = max(c.where["threads"] for c in fig5.cells)
    return CellTable(fig5.scale, [fig5.cell(algorithm="upc-distmem",
                                            threads=top)], _claims_table)


def _claims_table(t: CellTable) -> str:
    r = t.cells[0].result
    return "\n".join([
        f"{r.algorithm} T={r.n_threads} k={r.chunk_size} on "
        f"{r.machine_name}, {r.total_nodes:,} nodes",
        "",
        markdown_table(["claim", "paper", "measured"], [
            ["parallel efficiency at top of curve", "80% @ 1024 procs",
             f"**{100 * r.efficiency:.1f}%** @ {r.n_threads} threads"],
            ["speedup", "819 / 1024", f"{r.speedup:.1f} / {r.n_threads}"],
            ["sustained steal rate", ">85,000/s",
             f"**{r.steals_per_sec:,.0f}/s**"],
            ["search rate", "1.7 B nodes/s",
             f"{mnodes(r)} Mnodes/s (simulated platform)"],
            ["working-state share", "93%",
             f"**{100 * r.working_fraction:.1f}%**"],
        ]),
    ])
