"""Parameter sweeps over (algorithm, chunk size, thread count).

A sweep executes the cross product of a :class:`FigureSetup` and
collects :class:`~repro.metrics.report.RunResult` objects, verifying
node conservation on every run against the (cached) sequential count.

Execution goes through :mod:`repro.harness.parallel`: the grid cells
become :class:`~repro.harness.parallel.JobSpec` jobs sharing one
materialized tree per parameterization, optionally fanned out over
worker processes (``jobs=`` argument / ``REPRO_JOBS``).  The result
list is in grid order and bit-identical regardless of worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.harness.config import FigureSetup
from repro.harness.parallel import JobSpec, execute_jobs, resolve_jobs
from repro.harness.runner import expected_node_count
from repro.metrics.report import RunResult

__all__ = ["SweepResult", "run_sweep"]


@dataclass
class SweepResult:
    """All runs for one figure setup."""

    setup: FigureSetup
    expected_nodes: int
    runs: List[RunResult] = field(default_factory=list)

    def series(self, algorithm: str) -> List[RunResult]:
        """Runs for one algorithm, in execution order."""
        return [r for r in self.runs if r.algorithm == algorithm]

    def get(self, algorithm: str, *, chunk_size: Optional[int] = None,
            threads: Optional[int] = None) -> RunResult:
        for r in self.runs:
            if r.algorithm != algorithm:
                continue
            if chunk_size is not None and r.chunk_size != chunk_size:
                continue
            if threads is not None and r.n_threads != threads:
                continue
            return r
        raise KeyError(f"no run for {algorithm} k={chunk_size} T={threads}")

    def best(self, algorithm: str) -> RunResult:
        """The run with the highest throughput for one algorithm."""
        series = self.series(algorithm)
        if not series:
            raise KeyError(f"no runs for {algorithm}")
        return max(series, key=lambda r: r.nodes_per_sec)


def run_sweep(setup: FigureSetup, *, verify: bool = True,
              progress: Optional[Callable[[str], None]] = None,
              jobs: Optional[int] = None) -> SweepResult:
    """Execute every (algorithm, k, T) combination of ``setup``.

    ``jobs`` selects the worker-process count (default: ``REPRO_JOBS``
    env var, else serial; ``0`` means one worker per CPU).  Results are
    identical for every ``jobs`` value; with ``jobs > 1`` the per-run
    progress lines arrive in completion order.
    """
    n_jobs = resolve_jobs(jobs)
    expected = expected_node_count(setup.tree)
    grid = [
        JobSpec(index=i, algorithm=alg, tree=setup.tree, threads=threads,
                preset=setup.preset, chunk_size=k, expected_nodes=expected,
                verify=verify)
        for i, (alg, threads, k) in enumerate(
            (alg, threads, k)
            for alg in setup.algorithms
            for threads in setup.thread_counts
            for k in setup.chunk_sizes)
    ]
    t0 = time.perf_counter()
    runs = execute_jobs(grid, n_jobs, progress=progress)
    wall = time.perf_counter() - t0
    if progress is not None:
        busy = sum(r.host_seconds for r in runs)
        progress(f"sweep {setup.figure}[{setup.scale}]: {len(runs)} runs "
                 f"in {wall:.1f}s host wall-clock with jobs={n_jobs} "
                 f"(in-run total {busy:.1f}s, speedup {busy / wall:.2f}x)")
    return SweepResult(setup=setup, expected_nodes=expected, runs=runs)
