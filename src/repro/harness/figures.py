"""Per-figure reproduction drivers (the experiment index of DESIGN.md).

Each ``figureN`` function runs the sweep for that figure and packages
the exact series the paper plots (speedup and absolute performance),
ready for printing, charting, and EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.harness.ascii_plot import ascii_chart, series_table
from repro.harness.config import setup_for
from repro.harness.runner import run_experiment
from repro.harness.sweep import SweepResult, run_sweep
from repro.metrics.report import RunResult
from repro.net.presets import PRESETS

__all__ = ["FigureResult", "figure4", "figure5", "figure6",
           "ablation", "sequential_baseline", "headline_claims",
           "AblationResult", "ClaimsResult"]

Progress = Optional[Callable[[str], None]]


@dataclass
class FigureResult:
    """One reproduced figure: its sweep plus rendering helpers."""

    figure: str
    scale: str
    x_axis: str  # "chunk_size" or "threads"
    sweep: SweepResult

    def _x(self, run: RunResult) -> int:
        return run.chunk_size if self.x_axis == "chunk_size" else run.n_threads

    def speedup_series(self) -> Dict[str, List[Tuple[float, float]]]:
        return {
            alg: [(self._x(r), r.speedup) for r in self.sweep.series(alg)]
            for alg in self.sweep.setup.algorithms
        }

    def performance_series(self) -> Dict[str, List[Tuple[float, float]]]:
        """Absolute performance in Mnodes/s (the paper's right axis)."""
        return {
            alg: [(self._x(r), r.nodes_per_sec / 1e6)
                  for r in self.sweep.series(alg)]
            for alg in self.sweep.setup.algorithms
        }

    def table(self) -> str:
        header = [self.x_axis, "algorithm", "speedup", "efficiency_%",
                  "Mnodes/s", "steals", "steals/s"]
        rows = [
            [self._x(r), r.algorithm, round(r.speedup, 2),
             round(100 * r.efficiency, 1), round(r.nodes_per_sec / 1e6, 3),
             r.stats.steals_ok, round(r.steals_per_sec, 0)]
            for r in self.sweep.runs
        ]
        return series_table(header, rows)

    def render(self) -> str:
        setup = self.sweep.setup
        parts = [
            f"=== {self.figure} [{self.scale}] ===",
            setup.describe(),
            f"tree size (sequential count): {self.sweep.expected_nodes:,} nodes",
            "",
            self.table(),
            "",
            ascii_chart(self.speedup_series(), x_label=self.x_axis,
                        y_label="speedup", log_x=True,
                        title=f"{self.figure}: speedup vs {self.x_axis}"),
        ]
        return "\n".join(parts)

    def to_dict(self) -> dict:
        return {
            "figure": self.figure,
            "scale": self.scale,
            "x_axis": self.x_axis,
            "setup": self.sweep.setup.describe(),
            "expected_nodes": self.sweep.expected_nodes,
            "runs": [
                {
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
                for r in self.sweep.runs
            ],
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


@dataclass
class AblationResult:
    """Throughput of each refinement step at its best chunk size."""

    scale: str
    best: Dict[str, RunResult]

    def improvements(self) -> List[Tuple[str, str, float]]:
        """(from, to, speedup-ratio) for each refinement step."""
        out = []
        for a, b in zip(_ABLATION_CHAIN, _ABLATION_CHAIN[1:]):
            ratio = self.best[b].nodes_per_sec / self.best[a].nodes_per_sec
            out.append((a, b, ratio))
        return out

    @property
    def total_improvement(self) -> float:
        """distmem over sharedmem (paper: ~1.37x)."""
        return (self.best["upc-distmem"].nodes_per_sec /
                self.best["upc-sharedmem"].nodes_per_sec)

    def render(self) -> str:
        lines = [f"=== ablation [{self.scale}] (best chunk size per step) ==="]
        rows = [[alg, r.chunk_size, round(r.speedup, 2),
                 round(r.nodes_per_sec / 1e6, 3)]
                for alg, r in self.best.items()]
        lines.append(series_table(
            ["algorithm", "best_k", "speedup", "Mnodes/s"], rows))
        for a, b, ratio in self.improvements():
            lines.append(f"{a} -> {b}: {100 * (ratio - 1):+.1f}%")
        lines.append(f"total (sharedmem -> distmem): "
                     f"{100 * (self.total_improvement - 1):+.1f}%  "
                     f"(paper: about +37%)")
        return "\n".join(lines)


def ablation(scale: str = "quick", progress: Progress = None,
             from_figure4: Optional[FigureResult] = None) -> AblationResult:
    """Sect. 4.2: the refinement chain at each step's best chunk size.

    The ablation reads off the same (algorithm x chunk-size) grid as
    Figure 4; pass an already-computed ``from_figure4`` to reuse its
    runs instead of re-sweeping (the report generator does this).
    """
    if from_figure4 is not None and from_figure4.scale == scale:
        best = {alg: from_figure4.sweep.best(alg) for alg in _ABLATION_CHAIN}
        return AblationResult(scale=scale, best=best)
    setup = setup_for("fig4", scale)
    best: Dict[str, RunResult] = {}
    for alg in _ABLATION_CHAIN:
        runs = []
        for k in setup.chunk_sizes:
            r = run_experiment(alg, tree=setup.tree,
                               threads=setup.thread_counts[0],
                               preset=setup.preset, chunk_size=k, verify=True)
            runs.append(r)
            if progress is not None:
                progress(r.summary())
        best[alg] = max(runs, key=lambda r: r.nodes_per_sec)
    return AblationResult(scale=scale, best=best)


# --- Sect. 4.1 sequential baseline -------------------------------------------


def sequential_baseline() -> str:
    """The sequential-rate table of Sect. 4.1 (model inputs, by design)."""
    rows = [[name, round(net.sequential_rate() / 1e6, 2)]
            for name, net in PRESETS.items()]
    paper = {"topsail": 2.10, "kittyhawk": 2.39, "altix": 1.12}
    for row in rows:
        row.append(paper.get(row[0], float("nan")))
    return series_table(["platform", "Mnodes/s (model)", "Mnodes/s (paper)"],
                        rows)


# --- Sect. 1 / 6.2 headline claims --------------------------------------------


@dataclass
class ClaimsResult:
    """The paper's headline numbers at the reproduction's flagship scale."""

    run: RunResult

    def render(self) -> str:
        r = self.run
        working_eff = r.working_fraction
        return "\n".join([
            "=== headline claims (paper Sect. 1 / 6.2) ===",
            f"setup: {r.algorithm} T={r.n_threads} k={r.chunk_size} "
            f"on {r.machine_name}, {r.total_nodes:,} nodes",
            f"parallel efficiency : {100 * r.efficiency:5.1f}%   "
            "(paper: 80% at 1024 procs)",
            f"speedup             : {r.speedup:7.1f}   (paper: 819)",
            f"search rate         : {r.nodes_per_sec / 1e6:7.2f} Mnodes/s "
            "(paper: 1700 Mnodes/s at 1024 procs)",
            f"steal ops/sec       : {r.steals_per_sec:9,.0f}   "
            "(paper: >85,000)",
            f"working-state share : {100 * working_eff:5.1f}%   "
            "(paper: 93% in working state)",
        ])


def headline_claims(scale: str = "quick", progress: Progress = None,
                    from_figure5: Optional[FigureResult] = None) -> ClaimsResult:
    """Run the top point of Figure 5 and report the headline metrics.

    Pass an already-computed ``from_figure5`` to reuse its top run.
    """
    setup = setup_for("fig5", scale)
    threads = setup.thread_counts[-1]
    if from_figure5 is not None and from_figure5.scale == scale:
        return ClaimsResult(run=from_figure5.sweep.get(
            "upc-distmem", threads=threads,
            chunk_size=setup.chunk_sizes[0]))
    res = run_experiment("upc-distmem", tree=setup.tree, threads=threads,
                         preset=setup.preset, chunk_size=setup.chunk_sizes[0],
                         verify=True)
    if progress is not None:
        progress(res.summary())
    return ClaimsResult(run=res)
