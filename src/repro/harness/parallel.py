"""Process-parallel grid execution engine.

A registry grid is an embarrassingly parallel list of independent
simulations.  Each cell is a picklable job -- a :class:`JobSpec` (one
verified ``run_experiment``) or a checked cell
(:class:`repro.harness.checked.CheckedJob`) -- and this module executes
the list over a ``ProcessPoolExecutor``.  A job ``execute()``s itself,
names itself (``describe()``), says what its progress line is
(``report(result)``, ``None`` for none), guesses its cost
(``cost_hint()``) and names the tree it reads (``tree``):

* **Dynamic ordering** -- jobs are submitted longest-expected-first
  (small chunk sizes and lock-based protocols generate far more
  simulator events), so stragglers start early and the pool drains
  evenly; results are re-assembled into grid order afterwards, making
  the output list bit-identical to the serial path.
* **Shared tree cache** -- the parent resolves each distinct tree
  through :func:`repro.uts.materialized.tree_for` *before* the pool
  forks, so every worker reads the same expansion copy-on-write
  instead of re-hashing it per process.
* **Oracle shipped, not recomputed** -- the sequential node count is
  resolved once in the parent and travels inside each job.
* **Attributable failures** -- worker exceptions are captured with the
  job's identity and re-raised in the parent as
  :class:`~repro.errors.SweepWorkerError` (chained via ``raise ...
  from`` where the original exception object is available, i.e. on the
  serial path).  A failed job is not retried: the simulations are
  deterministic, so a second attempt could only fail the same way or
  hide the nondeterminism the bit-identity pins exist to catch.
* **Wall-clock deadline** -- ``REPRO_JOB_TIMEOUT`` (seconds) bounds
  each job attempt; an overrunning simulation is interrupted via
  ``SIGALRM`` and surfaces as an attributable :class:`JobTimeout`
  instead of a silent hang.
* **Graceful fallback** -- ``jobs=1``, a single-cell grid, or a
  platform without ``fork`` all run the exact same job list serially
  in-process.

The worker count comes from (in order): an explicit ``jobs=`` argument,
the ``REPRO_JOBS`` environment variable, else 1.  ``jobs=0`` means
"one per CPU".
"""

from __future__ import annotations

import os
import signal
import threading
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.errors import ConfigError, SweepWorkerError
from repro.metrics.report import RunResult
from repro.net.model import NetworkModel
from repro.uts.materialized import expected_node_count, tree_for
from repro.uts.params import TreeParams
from repro.ws.config import WsConfig

__all__ = ["JobSpec", "JobTimeout", "execute_jobs", "job_timeout",
           "resolve_jobs", "shared_tree", "expected_nodes_for",
           "fork_available"]

Progress = Optional[Callable[[str], None]]

#: The names ``bench/`` imports the tree cache and the oracle under.
shared_tree = tree_for
expected_nodes_for = expected_node_count

def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument > ``REPRO_JOBS`` env var > 1.

    ``0`` (argument or env var) means "one per CPU".  A negative
    argument, or a ``REPRO_JOBS`` value that is not an integer or is
    negative, raises :class:`~repro.errors.ConfigError` naming the
    offending value -- a typo must not silently degrade a sweep to one
    worker (or quietly mean "all CPUs").
    """
    if jobs is not None and jobs < 0:
        raise ConfigError(f"jobs={jobs} is negative "
                          "(expected a worker count; 0 = one per CPU)")
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "1").strip()
        try:
            jobs = int(raw)
        except ValueError:
            raise ConfigError(
                f"REPRO_JOBS={raw!r} is not an integer "
                "(expected a worker count; 0 = one per CPU)") from None
        if jobs < 0:
            raise ConfigError(
                f"REPRO_JOBS={raw!r} is negative "
                "(expected a worker count; 0 = one per CPU)")
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


def job_timeout() -> float:
    """Per-attempt wall-clock limit in seconds from ``REPRO_JOB_TIMEOUT``.

    Unset, empty, or ``0`` means no limit.  Non-numeric or negative
    values raise :class:`~repro.errors.ConfigError`.
    """
    raw = os.environ.get("REPRO_JOB_TIMEOUT", "").strip()
    if not raw:
        return 0.0
    try:
        limit = float(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_JOB_TIMEOUT={raw!r} is not a number "
            "(expected seconds; 0 = no limit)") from None
    if limit < 0:
        raise ConfigError(
            f"REPRO_JOB_TIMEOUT={raw!r} is negative "
            "(expected seconds; 0 = no limit)")
    return limit


def fork_available() -> bool:
    """True when the platform supports fork-based worker processes."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


@dataclass(frozen=True)
class JobSpec:
    """One picklable sweep cell: a verified ``run_experiment``.

    ``index`` is the cell's position in grid (serial) order; results
    are re-assembled by it.  ``expected_nodes`` is the parent-computed
    sequential oracle (``None`` skips worker-side verification).
    ``net``, when given, is the machine model in place of ``preset``'s.
    """

    index: int
    algorithm: str
    tree: TreeParams
    threads: int
    preset: str
    chunk_size: int
    config: Optional[WsConfig] = None
    seed: int = 0
    expected_nodes: Optional[int] = None
    verify: bool = True
    net: Optional[NetworkModel] = None

    def execute(self) -> RunResult:
        """Run the cell in the current process, verified."""
        from repro.harness.runner import run_experiment

        result = run_experiment(self.algorithm, tree=self.tree,
                                threads=self.threads, preset=self.preset,
                                config=self.config,
                                chunk_size=self.chunk_size, seed=self.seed,
                                net=self.net)
        if self.verify and self.expected_nodes is not None:
            result.verify(self.expected_nodes)
        return result

    def report(self, result: RunResult) -> str:
        return result.summary()

    def describe(self) -> str:
        return (f"{self.algorithm} T={self.threads} k={self.chunk_size} "
                f"preset={self.preset} tree={self.tree.describe()}")

    def cost_hint(self) -> float:
        """Relative expected runtime, for longest-first scheduling.

        Every run visits the same node count, but simulator event
        traffic grows with thread count and (sharply) with ``1/k``;
        the lock-based shared-memory protocol is the worst offender at
        small ``k`` (its Figure-4 collapse).  A heuristic, not a model:
        only the ordering quality depends on it, never correctness.
        """
        k = self.chunk_size if self.config is None else self.config.chunk_size
        cost = self.threads * (1.0 + 16.0 / max(k, 1))
        if self.algorithm == "upc-sharedmem":
            cost *= 2.0
        return cost


class JobTimeout(Exception):
    """A sweep job attempt exceeded ``REPRO_JOB_TIMEOUT`` seconds."""


@contextmanager
def _deadline(limit: float, job):
    """Interrupt the block with :class:`JobTimeout` after ``limit`` s.

    Uses ``SIGALRM``, so it only engages on the main thread (both the
    serial path and ``ProcessPoolExecutor`` fork-workers run jobs
    there); elsewhere -- or with no limit -- it is a no-op.
    """
    if limit <= 0 or threading.current_thread() is not threading.main_thread():
        yield
        return

    def _on_alarm(signum, frame):
        raise JobTimeout(
            f"job exceeded REPRO_JOB_TIMEOUT={limit:g}s: {job.describe()}")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _attempt_job(job) -> Any:
    """Run one job under the deadline.  A failure is not retried: the
    simulations are deterministic, so a real bug fails the same way
    twice, and a second attempt that succeeded would be exactly the
    nondeterminism the bit-identity pins exist to catch."""
    with _deadline(job_timeout(), job):
        return job.execute()


def _worker(job):
    """Pool entry point: never raises, tags outcomes with job identity."""
    try:
        return ("ok", job.index, _attempt_job(job))
    except BaseException:
        return ("err", job.index, job.describe(), traceback.format_exc())


def _raise_worker_error(described: str, tb: str,
                        cause: Optional[BaseException] = None) -> None:
    # `cause` is only available on the serial path; across the pool's
    # pickle boundary the traceback travels as text instead.
    raise SweepWorkerError(
        f"sweep job failed: {described}\n--- worker traceback ---\n{tb}"
    ) from cause


def execute_jobs(jobs: List[Any], n_jobs: int = 1,
                 progress: Progress = None) -> List[Any]:
    """Execute every job; return results in grid (``index``) order.

    ``n_jobs > 1`` fans out over forked worker processes; otherwise --
    or when the platform lacks fork -- the same job list runs serially
    in-process, producing identical results.  With ``n_jobs > 1``
    progress lines arrive in completion order, not grid order.
    """
    slot_of = {job.index: slot for slot, job in
               enumerate(sorted(jobs, key=lambda job: job.index))}
    results: List[Any] = [None] * len(jobs)
    serial = n_jobs <= 1 or len(jobs) <= 1 or not fork_available()
    for job, result in _serial(jobs) if serial else _pool(jobs, n_jobs):
        results[slot_of[job.index]] = result
        if progress is not None and (line := job.report(result)) is not None:
            progress(line)
    return results


def _serial(jobs: List[Any]) -> Iterator[Tuple[Any, Any]]:
    for job in jobs:
        try:
            result = _attempt_job(job)
        except BaseException as exc:
            _raise_worker_error(job.describe(), traceback.format_exc(),
                                cause=exc)
        yield job, result


def _pool(jobs: List[Any], n_jobs: int) -> Iterator[Tuple[Any, Any]]:
    """Each job and its result, in completion order."""
    # Imported here: a serial run never loads the pool.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    # Expand every distinct tree BEFORE forking so workers inherit the
    # materialized arrays copy-on-write instead of rebuilding them.
    for params in {job.tree for job in jobs} - {None}:
        tree_for(params)

    job_of = {job.index: job for job in jobs}
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=min(n_jobs, len(jobs)),
                             mp_context=ctx) as pool:
        futures = [pool.submit(_worker, job) for job in sorted(
            jobs, key=lambda job: job.cost_hint(), reverse=True)]
        try:
            # as_completed waits on every future once; a wait() per
            # result would walk all pending futures each time.
            for future in as_completed(futures):
                status, index, *rest = future.result()
                if status == "err":
                    _raise_worker_error(*rest)
                yield job_of[index], rest[0]
        except BaseException:
            for future in futures:
                future.cancel()
            raise
