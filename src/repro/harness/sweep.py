"""Grids: every registry entry's cells, run one way into one table.

An entry that runs simulations builds its grid as ``(where, job)``
pairs -- ``where`` names the cell, the job is a
:class:`~repro.harness.parallel.JobSpec` (one verified run) or a
:class:`~repro.harness.checked.CheckedJob` (a checked cell) -- and
:func:`run_cells` hands the jobs to
:func:`~repro.harness.parallel.execute_jobs`, serially or over forked
workers (``jobs=`` argument / ``REPRO_JOBS``).  The :class:`CellTable`
it returns is in grid order and bit-identical for every worker count;
an entry's claims read it through :meth:`CellTable.cell` and
:meth:`CellTable.done`.  :func:`run_sweep` is a figure's grid: the
(algorithm, threads, k) cross product of a :class:`FigureSetup`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.harness.config import FigureSetup
from repro.harness.parallel import JobSpec, execute_jobs, resolve_jobs
from repro.harness.runner import expected_node_count
from repro.metrics.report import RunResult

__all__ = ["Cell", "CellTable", "run_cells", "run_sweep", "markdown_table",
           "run_row"]

Progress = Optional[Callable[[str], None]]

#: The errors of a run that did not terminate: it spun to its event
#: budget, or every live process blocked.
TERMINATION_ERRORS = ("EventLimitExceeded", "DeadlockError")


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


def named(where: dict) -> str:
    """A cell's ``where`` as ``key=value`` words."""
    return " ".join(f"{k}={v}" for k, v in where.items())


@dataclass
class Cell:
    """One run of a grid, named by ``where``, and what it showed."""

    where: dict
    #: The tree's node count the run must account for; ``None`` for a
    #: service stream, whose task ledger balances by itself.
    oracle: Optional[int]
    result: Any = None
    error_type: str = ""
    error: str = ""
    #: The untraced replay executed the same schedule (``None``: the
    #: run raised, or is no checked cell, so there was nothing to replay).
    replayed: Optional[bool] = None
    #: What the monitor or the trace measured beside the result.
    measured: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.error_type

    @property
    def terminated(self) -> bool:
        return self.error_type not in TERMINATION_ERRORS

    @property
    def duplicated(self) -> bool:
        """The run completed with ledgered duplicated work."""
        return self.ok and getattr(self.result, "dup_work", 0) > 0

    @property
    def conserved(self) -> bool:
        """Every node (or task) is accounted for: ``nodes + lost ==
        oracle + dup``, and nothing is lost unless a rank was killed."""
        r = self.result
        if self.oracle is None:
            balanced = r.admitted == r.completed + r.shed_total + r.lost_tasks
            lost = r.lost_tasks
        else:
            balanced = (r.total_nodes + r.lost_work
                        == self.oracle + getattr(r, "dup_work", 0))
            lost = r.lost_work
        killed = r.fault_counters is not None and r.fault_counters.threads_killed
        return balanced and (lost == 0 or bool(killed))

    def label(self) -> str:
        if not self.ok:
            return f"{named(self.where)}: {self.error_type}: {self.error}"
        r = self.result
        return (f"{named(self.where)}: nodes={r.total_nodes} "
                f"lost={r.lost_work} t={r.sim_time * 1e3:.3f}ms "
                f"events={r.engine_events}")

    def row(self) -> dict:
        """The cell as one flat JSON/CSV row."""
        return {**self.where, "ok": self.ok, "error": "" if self.ok
                else self.label(), "replayed": self.replayed,
                **(counts(self.result) if self.ok else {}), **self.measured}


def counts(r) -> dict:
    """A result's counts, flat: a service stream's ledger, or a batch
    run's paper metrics and work accounting; its fault counters."""
    counts = r.as_dict() if hasattr(r, "as_dict") else {
        **run_row(r), "total_nodes": r.total_nodes, "lost_work": r.lost_work,
        "dup_work": r.dup_work, "engine_events": r.engine_events}
    return {**counts, "faults": r.fault_counters.nonzero()
            if r.fault_counters else {}}


@dataclass
class CellTable:
    """A grid's cells, rendered by its entry's ``render``."""

    scale: str
    cells: List[Cell]
    render: Callable[["CellTable"], str]

    def done(self, **where) -> List[Cell]:
        """The completed cells at ``where`` (every key of it matching)."""
        return [c for c in self.cells if c.ok and all(
            c.where.get(k) == v for k, v in where.items())]

    def cell(self, **where) -> Cell:
        """The one completed cell at ``where``; ``KeyError`` if it is
        not in the grid or raised (a claim reads that as a verdict)."""
        found = self.done(**where)
        if len(found) != 1:
            raise KeyError(f"no completed cell at {where}")
        return found[0]

    def markdown(self) -> str:
        return self.render(self)

    def to_dict(self) -> dict:
        return {"scale": self.scale, "runs": [c.row() for c in self.cells]}


#: A grid: its ``(where, job)`` cells and its table's renderer.
Grid = Tuple[List[Tuple[dict, Any]], Callable[[CellTable], str]]


def run_cells(name: str, scale: str, cells: List[Tuple[dict, Any]],
              render: Callable[[CellTable], str], progress: Progress = None,
              jobs: Optional[int] = None) -> CellTable:
    """The one way a grid runs: every cell's job through
    :func:`~repro.harness.parallel.execute_jobs` on ``jobs`` workers,
    into one table in grid order.  A checked job returns its cell; a
    :class:`JobSpec`'s verified run becomes the cell at its ``where``.
    The last progress line names the grid, its size and the workers."""
    n_jobs = resolve_jobs(jobs)
    t0 = time.perf_counter()
    done = execute_jobs([replace(job, index=i)
                         for i, (_, job) in enumerate(cells)], n_jobs,
                        progress=progress)
    if progress is not None:
        progress(f"{name}[{scale}]: {len(done)} cells in "
                 f"{time.perf_counter() - t0:.1f}s host wall-clock with "
                 f"jobs={n_jobs}")
    return CellTable(scale, [
        out if isinstance(out, Cell) else Cell(where, job.expected_nodes, out)
        for (where, job), out in zip(cells, done)], render)


def mnodes(r: RunResult) -> str:
    return f"{r.nodes_per_sec / 1e6:.1f}"


#: Each figure's x axis, and what its table shows per (x, algorithm).
_FIGURES = {
    "fig4": ("chunk_size", "Mnodes/s", mnodes),
    "fig5": ("threads", "speedup (efficiency)",
             lambda r: f"{r.speedup:.1f} ({100 * r.efficiency:.0f}%)"),
    "fig6": ("threads", "efficiency", lambda r: f"{100 * r.efficiency:.1f}%"),
}


def figure_grid(setup: FigureSetup, verify: bool = True) -> Grid:
    """``setup``'s (algorithm, threads, k) cross product as verified
    jobs on its tree, and the figure's table: x down, one column per
    algorithm; Figure 4 bolds each row's best."""
    expected = expected_node_count(setup.tree)
    return [({"algorithm": alg, "threads": threads, "chunk_size": k},
             JobSpec(index=0, algorithm=alg, tree=setup.tree, threads=threads,
                     preset=setup.preset, chunk_size=k,
                     expected_nodes=expected, verify=verify))
            for alg in setup.algorithms for threads in setup.thread_counts
            for k in setup.chunk_sizes], partial(_figure_table, setup)


def _figure_table(setup: FigureSetup, t: CellTable) -> str:
    x, what, show = _FIGURES[setup.figure]
    rows = []
    for at in sorted({c.where[x] for c in t.cells}):
        runs = {c.where["algorithm"]: c.result for c in t.done(**{x: at})}
        best = max(runs.values(), key=lambda r: r.nodes_per_sec)
        rows.append([at] + [
            f"**{show(r)}**" if setup.figure == "fig4" and r is best
            else show(r) for r in map(runs.get, setup.algorithms)])
    return "\n".join([
        f"{setup.describe()}; {expected_node_count(setup.tree):,} nodes; "
        f"cells: {what}", "",
        markdown_table(["k" if x == "chunk_size" else "threads",
                        *setup.algorithms], rows)])


def run_sweep(setup: FigureSetup, *, verify: bool = True,
              progress: Progress = None,
              jobs: Optional[int] = None) -> CellTable:
    """Execute every (algorithm, k, T) combination of ``setup``.

    ``jobs`` selects the worker-process count (default: ``REPRO_JOBS``
    env var, else serial; ``0`` means one worker per CPU).  Results are
    identical for every ``jobs`` value; with ``jobs > 1`` the per-run
    progress lines arrive in completion order.
    """
    return run_cells(f"sweep {setup.figure}", setup.scale,
                     *figure_grid(setup, verify), progress=progress,
                     jobs=jobs)
