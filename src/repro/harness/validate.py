"""Systematic protocol validation: the conservation grid.

Runs every algorithm over a grid of (tree seed × thread count × chunk
size × platform) and checks the master invariant on each run.  This is
the heavyweight version of the test suite's Hypothesis sweep, intended
for validating protocol changes (`repro-uts validate`).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import ReproError
from repro.harness.runner import run_experiment
from repro.uts.params import TreeParams
from repro.ws.algorithms import ALGORITHMS

__all__ = ["ValidationReport", "validate_grid"]


@dataclass
class ValidationReport:
    """Outcome of a validation sweep."""

    runs: int = 0
    failures: List[str] = field(default_factory=list)
    host_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [f"validation: {status} -- {self.runs} runs in "
                 f"{self.host_seconds:.1f}s"]
        lines.extend(f"  FAILURE: {f}" for f in self.failures)
        return "\n".join(lines)


def validate_grid(
    *,
    algorithms: Optional[List[str]] = None,
    seeds: Optional[List[int]] = None,
    thread_counts: Optional[List[int]] = None,
    chunk_sizes: Optional[List[int]] = None,
    presets: Optional[List[str]] = None,
    b0: int = 30,
    q: float = 0.45,
    progress: Optional[Callable[[str], None]] = None,
) -> ValidationReport:
    """Run the conservation grid; returns a report (never raises for
    individual run failures -- they are collected)."""
    algorithms = algorithms or sorted(ALGORITHMS)
    seeds = seeds if seeds is not None else [0, 1, 2]
    thread_counts = thread_counts or [1, 3, 8]
    chunk_sizes = chunk_sizes or [1, 4, 16]
    presets = presets or ["kittyhawk", "altix"]

    report = ValidationReport()
    t0 = time.perf_counter()
    for seed in seeds:
        tree = TreeParams.binomial(b0=b0, m=2, q=q, seed=seed)
        for alg, threads, k, preset in itertools.product(
                algorithms, thread_counts, chunk_sizes, presets):
            report.runs += 1
            label = (f"{alg} seed={seed} T={threads} k={k} {preset}")
            try:
                run_experiment(alg, tree=tree, threads=threads,
                               preset=preset, chunk_size=k, verify=True)
            except ReproError as exc:
                report.failures.append(f"{label}: {exc}")
            else:
                if progress is not None:
                    progress(f"ok  {label}")
    report.host_seconds = time.perf_counter() - t0
    return report
