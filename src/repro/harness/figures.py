"""The views read off the paper's figures, and its sequential baseline.

Figures 4-6 (E2-E4) are grids (:func:`repro.harness.sweep.run_sweep`):
each a :class:`~repro.harness.sweep.CellTable` of verified runs.  The
refinement ablation (E5) and the headline claims (E6) are views of
those tables; they and the sequential baseline (E1) render as the
Markdown table EXPERIMENTS.md embeds (``markdown()``) and as the rows
``--json`` / ``--csv`` write (``to_dict()["runs"]``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.harness.sweep import (Cell, CellTable, markdown_table, mnodes,
                                 run_row)
from repro.metrics.report import RunResult
from repro.net.presets import PRESETS

__all__ = ["best", "ablation", "sequential_baseline", "headline_claims",
           "AblationResult", "BaselineResult", "ClaimsResult"]


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


@dataclass
class AblationResult:
    """Throughput of each refinement step at its best chunk size."""

    scale: str
    best: Dict[str, RunResult]

    def improvements(self) -> List[Tuple[str, str, float]]:
        """(from, to, speedup-ratio) for each refinement step."""
        return [(a, b, self.best[b].nodes_per_sec / self.best[a].nodes_per_sec)
                for a, b in zip(_ABLATION_CHAIN, _ABLATION_CHAIN[1:])]

    @property
    def total_improvement(self) -> float:
        """distmem over sharedmem (paper: ~1.37x)."""
        return (self.best["upc-distmem"].nodes_per_sec /
                self.best["upc-sharedmem"].nodes_per_sec)

    def markdown(self) -> str:
        steps = ["—"] + [f"**{100 * (ratio - 1):+.1f}%**"
                         for _, _, ratio in self.improvements()]
        rows = [[f"{alg} {label}".strip(), self.best[alg].chunk_size,
                 mnodes(self.best[alg]), step]
                for alg, label, step in zip(_ABLATION_CHAIN, _REFINEMENTS,
                                            steps)]
        rows.append(["**total**", "", "",
                     f"**{100 * (self.total_improvement - 1):+.1f}%**"])
        return markdown_table(["step", "best k", "Mnodes/s", "improvement"],
                              rows)

    def to_dict(self) -> dict:
        return {"scale": self.scale,
                "runs": [run_row(self.best[alg]) for alg in _ABLATION_CHAIN]}


def ablation(fig4: CellTable) -> AblationResult:
    """Sect. 4.2: the refinement chain at each step's best chunk size,
    read off Figure 4's (algorithm x chunk-size) grid."""
    return AblationResult(scale=fig4.scale, best={
        alg: best(fig4, alg).result for alg in _ABLATION_CHAIN})


# --- Sect. 4.1 sequential baseline -------------------------------------------

#: Sect. 4.1's measured sequential rates, Mnodes/s.
PAPER_SEQUENTIAL_RATES = {"topsail": 2.10, "kittyhawk": 2.39, "altix": 1.12}


@dataclass
class BaselineResult:
    """Each paper platform's model sequential rate beside the paper's."""

    model: Dict[str, float]  # platform -> Mnodes/s

    def markdown(self) -> str:
        return markdown_table(
            ["platform", "model Mnodes/s", "paper Mnodes/s"],
            [[name, f"{rate:.2f}", f"{PAPER_SEQUENTIAL_RATES[name]:.2f}"]
             for name, rate in self.model.items()])

    def to_dict(self) -> dict:
        return {"runs": [{"platform": name, "model_mnodes_per_s": rate,
                          "paper_mnodes_per_s": PAPER_SEQUENTIAL_RATES[name]}
                         for name, rate in self.model.items()]}


def sequential_baseline() -> BaselineResult:
    """The sequential-rate table of Sect. 4.1 (model inputs, by design)."""
    return BaselineResult({name: PRESETS[name].sequential_rate() / 1e6
                           for name in PAPER_SEQUENTIAL_RATES})


# --- Sect. 1 / 6.2 headline claims --------------------------------------------


@dataclass
class ClaimsResult:
    """The paper's headline numbers at the top of Figure 5's curve."""

    run: RunResult

    def markdown(self) -> str:
        r = self.run
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

    def to_dict(self) -> dict:
        return {"runs": [run_row(self.run)]}


def headline_claims(fig5: CellTable) -> ClaimsResult:
    """The headline metrics at Figure 5's top point (upc-distmem)."""
    return ClaimsResult(run=fig5.cell(algorithm="upc-distmem", threads=max(
        c.where["threads"] for c in fig5.cells)).result)
