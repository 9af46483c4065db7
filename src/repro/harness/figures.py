"""Renderers for the paper's evaluation (the experiment index of DESIGN.md).

Each result renders as the Markdown table EXPERIMENTS.md embeds
(``markdown()``) and as the rows ``--json`` / ``--csv`` write
(``to_dict()["runs"]``); :mod:`repro.harness.experiments` checks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness.config import setup_for
from repro.harness.sweep import SweepResult, run_sweep
from repro.metrics.report import RunResult
from repro.net.presets import PRESETS

__all__ = ["FigureResult", "figure4", "figure5", "figure6",
           "ablation", "sequential_baseline", "headline_claims",
           "AblationResult", "BaselineResult", "ClaimsResult", "RunTable",
           "markdown_table", "run_row"]

Progress = Optional[Callable[[str], None]]


def markdown_table(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """A GitHub-flavoured Markdown table."""
    lines = ["| " + " | ".join(map(str, header)) + " |",
             "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(map(str, row)) + " |" for row in rows]
    return "\n".join(lines)


def run_row(r: RunResult) -> dict:
    """One run's paper-comparable metrics, flat (a JSON/CSV row)."""
    return {
        "algorithm": r.algorithm,
        "threads": r.n_threads,
        "chunk_size": r.chunk_size,
        "sim_time": r.sim_time,
        "speedup": r.speedup,
        "efficiency": r.efficiency,
        "nodes_per_sec": r.nodes_per_sec,
        "steals_ok": r.stats.steals_ok,
        "steals_per_sec": r.steals_per_sec,
        "working_fraction": r.working_fraction,
    }


def _mnodes(r: RunResult) -> str:
    return f"{r.nodes_per_sec / 1e6:.1f}"


#: What each figure's table shows per (x, algorithm) cell.
_CELLS: Dict[str, Tuple[str, Callable[[RunResult], str]]] = {
    "fig4": ("Mnodes/s", _mnodes),
    "fig5": ("speedup (efficiency)",
             lambda r: f"{r.speedup:.1f} ({100 * r.efficiency:.0f}%)"),
    "fig6": ("efficiency", lambda r: f"{100 * r.efficiency:.1f}%"),
}


@dataclass
class FigureResult:
    """One reproduced figure: its sweep plus rendering helpers."""

    figure: str
    scale: str
    x_axis: str  # "chunk_size" or "threads"
    sweep: SweepResult

    def _x(self, run: RunResult) -> int:
        return run.chunk_size if self.x_axis == "chunk_size" else run.n_threads

    def markdown(self) -> str:
        """x down, one column per algorithm; Figure 4 bolds each row's best."""
        setup = self.sweep.setup
        what, cell = _CELLS[self.figure]
        rows = []
        for x in sorted({self._x(r) for r in self.sweep.runs}):
            at_x = {r.algorithm: r for r in self.sweep.runs if self._x(r) == x}
            best = max(at_x.values(), key=lambda r: r.nodes_per_sec)
            rows.append([x] + [
                f"**{cell(r)}**" if self.figure == "fig4" and r is best
                else cell(r) for r in map(at_x.get, setup.algorithms)])
        return "\n".join([
            f"{setup.describe()}; {self.sweep.expected_nodes:,} nodes; "
            f"cells: {what}",
            "",
            markdown_table(["k" if self.x_axis == "chunk_size" else "threads",
                            *setup.algorithms], rows),
        ])

    def to_dict(self) -> dict:
        return {
            "figure": self.figure,
            "scale": self.scale,
            "x_axis": self.x_axis,
            "setup": self.sweep.setup.describe(),
            "expected_nodes": self.sweep.expected_nodes,
            "runs": [run_row(r) for r in self.sweep.runs],
        }


def figure4(scale: str = "quick", progress: Progress = None,
            jobs: Optional[int] = None) -> FigureResult:
    """Figure 4: speedup & performance vs chunk size (Kitty Hawk model)."""
    sweep = run_sweep(setup_for("fig4", scale), progress=progress, jobs=jobs)
    return FigureResult("fig4", scale, "chunk_size", sweep)


def figure5(scale: str = "quick", progress: Progress = None,
            jobs: Optional[int] = None) -> FigureResult:
    """Figure 5: speedup & performance vs thread count (Topsail model)."""
    sweep = run_sweep(setup_for("fig5", scale), progress=progress, jobs=jobs)
    return FigureResult("fig5", scale, "threads", sweep)


def figure6(scale: str = "quick", progress: Progress = None,
            jobs: Optional[int] = None) -> FigureResult:
    """Figure 6: speedup & performance on shared memory (Altix model)."""
    sweep = run_sweep(setup_for("fig6", scale), progress=progress, jobs=jobs)
    return FigureResult("fig6", scale, "threads", sweep)


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
                 _mnodes(self.best[alg]), step]
                for alg, label, step in zip(_ABLATION_CHAIN, _REFINEMENTS,
                                            steps)]
        rows.append(["**total**", "", "",
                     f"**{100 * (self.total_improvement - 1):+.1f}%**"])
        return markdown_table(["step", "best k", "Mnodes/s", "improvement"],
                              rows)

    def to_dict(self) -> dict:
        return {"scale": self.scale,
                "runs": [run_row(self.best[alg]) for alg in _ABLATION_CHAIN]}


def ablation(fig4: FigureResult) -> AblationResult:
    """Sect. 4.2: the refinement chain at each step's best chunk size,
    read off Figure 4's (algorithm x chunk-size) grid."""
    return AblationResult(scale=fig4.scale, best={
        alg: fig4.sweep.best(alg) for alg in _ABLATION_CHAIN})


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
                 f"{_mnodes(r)} Mnodes/s (simulated platform)"],
                ["working-state share", "93%",
                 f"**{100 * r.working_fraction:.1f}%**"],
            ]),
        ])

    def to_dict(self) -> dict:
        return {"runs": [run_row(self.run)]}


def headline_claims(fig5: FigureResult) -> ClaimsResult:
    """The headline metrics at Figure 5's top point (upc-distmem)."""
    setup = fig5.sweep.setup
    return ClaimsResult(run=fig5.sweep.get(
        "upc-distmem", threads=setup.thread_counts[-1],
        chunk_size=setup.chunk_sizes[0]))


# --- extension rows: small grids keyed by the swept values -------------------


@dataclass
class RunTable:
    """An extension row's runs, keyed by the swept values (``axes``)."""

    axes: Tuple[str, ...]
    runs: Dict[tuple, RunResult]

    def rate(self, *key) -> float:
        return self.runs[key].nodes_per_sec

    def markdown(self) -> str:
        rows = [[*key, _mnodes(r), f"{100 * r.efficiency:.1f}%",
                 r.stats.steals_ok, f"{r.sim_time * 1e3:.3f}"]
                for key, r in self.runs.items()]
        return markdown_table(
            [*self.axes, "Mnodes/s", "efficiency", "steals", "sim ms"], rows)

    def to_dict(self) -> dict:
        return {"axes": list(self.axes),
                "runs": [{**dict(zip(self.axes, key)), **run_row(r)}
                         for key, r in self.runs.items()]}
