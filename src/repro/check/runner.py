"""One fuzz cell = one checked run; the bridge between the fuzzing
driver and ``run_experiment``.

:func:`check_run` executes a single (variant, schedule, fault-plan)
cell with the :class:`~repro.check.invariants.InvariantMonitor`
attached and every error class the harness can raise folded into a
:class:`CheckOutcome` -- the fuzzer and the shrinker treat runs as
pure functions from cell parameters to outcome, which is what makes
delta-debugging them trivial.

A *cell* is just the keyword arguments of :func:`check_run`; shrunk
reproducers serialize it as a dict literal (see
:func:`repro.check.shrink.reproducer_source`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional, Sequence

from repro.errors import ReproError
from repro.check.invariants import InvariantMonitor
from repro.check.tiebreak import DelayTieBreak, RandomTieBreak

__all__ = ["CheckOutcome", "check_run", "check_service_run", "VARIANTS"]

#: Every registered algorithm label, figure order then extensions.
VARIANTS = ("upc-sharedmem", "upc-term", "upc-term-rapdif",
            "upc-distmem", "upc-distmem-hier", "mpi-ws",
            "ws-fencefree", "tree-split")


@dataclass
class CheckOutcome:
    """Everything the fuzzer needs to know about one checked run."""

    ok: bool
    variant: str
    error_type: Optional[str] = None
    error: Optional[str] = None
    engine_events: int = 0
    total_nodes: int = 0
    sim_time: float = 0.0
    lost_work: int = 0
    #: Ledgered duplicated work (multiplicity-relaxed variants only).
    dup_work: int = 0
    monitor: dict = field(default_factory=dict)
    #: The run's own result (``RunResult`` / ``ServiceResult``) when it
    #: completed: what an experiment table reads beyond these fields.
    result: Any = field(default=None, repr=False)

    def label(self) -> str:
        if self.ok:
            return (f"ok events={self.engine_events} "
                    f"nodes={self.total_nodes}")
        return f"{self.error_type}: {self.error}"


def check_run(
    variant: str,
    *,
    threads: int = 8,
    chunk_size: int = 4,
    preset: str = "kittyhawk",
    b0: int = 64,
    q: float = 0.48,
    m: int = 2,
    tree_seed: int = 1,
    seed: int = 0,
    schedule_seed: Optional[int] = None,
    defer: Sequence[int] = (),
    fault_spec: Optional[str] = None,
    fault_seed: int = 0,
    max_events: int = 500_000,
    verify: bool = True,
    idle_strategy: str = "poll",
    queue: str = "auto",
    scenario: Optional[str] = None,
) -> CheckOutcome:
    """Run one invariant-checked cell; never raises a protocol error.

    ``schedule_seed`` selects a :class:`RandomTieBreak` permutation;
    ``defer`` (mutually exclusive in practice, checked here) selects a
    :class:`DelayTieBreak` bounded reordering; neither gives the
    canonical schedule.  ``fault_spec`` is the
    :func:`repro.faults.plan.parse_fault_spec` grammar.
    ``idle_strategy`` ("poll" or "park") and ``queue`` ("auto" -- the
    heap -- "heap", "bucket") extend the cell space over the O(active)
    engine: park cells fuzz the event-driven wakeup paths, and asking
    for the bucket queue cross-checks its dispatch order.

    ``scenario`` names a :data:`repro.scenarios.SCENARIOS` entry: its
    machine preset replaces ``preset`` and its policy/speed/adversary
    overlays are applied to the config, so every catalog scenario can
    be fuzzed cell-for-cell like the baseline.

    Errors caught: every :class:`~repro.errors.ReproError` subclass --
    invariant violations, protocol assertions, deadlocks, event-budget
    exhaustion, verification mismatches.  Anything else (a genuine
    crash) propagates.
    """
    # Imported here: repro.check must stay importable without pulling
    # the whole harness (docs tooling imports the policies alone).
    from repro.harness.runner import run_experiment
    from repro.uts.params import TreeParams
    from repro.ws.config import WsConfig

    tree = TreeParams.binomial(b0=b0, m=m, q=q, seed=tree_seed)
    cfg = WsConfig(chunk_size=chunk_size, idle_strategy=idle_strategy)
    if scenario is not None:
        from repro.scenarios import get_scenario
        sc = get_scenario(scenario)
        preset = sc.preset
        cfg = sc.apply(cfg, threads)
    run = partial(run_experiment, variant, tree=tree, threads=threads,
                  preset=preset, config=cfg, seed=seed, verify=verify,
                  max_events=max_events, queue=queue)
    return _checked(variant, run, schedule_seed, defer, fault_spec,
                    fault_seed)


def check_service_run(
    *,
    threads: int = 8,
    chunk_size: int = 2,
    preset: str = "kittyhawk",
    arrival_spec: str = "poisson:rate=8e5",
    n_tasks: int = 120,
    queue_capacity: int = 16,
    policy: str = "shed-oldest",
    deadline: float = 150e-6,
    max_retries: int = 2,
    service_seed: int = 3,
    seed: int = 0,
    schedule_seed: Optional[int] = None,
    defer: Sequence[int] = (),
    fault_spec: Optional[str] = None,
    fault_seed: int = 0,
    max_events: int = 500_000,
    idle_strategy: str = "park",
    queue: str = "auto",
) -> CheckOutcome:
    """:func:`check_run`'s open-system sibling: one checked service cell.

    The monitor's batch invariants (I1-I5) all apply -- the service
    pool reuses the lock-based steal protocol -- plus the extended I1
    task-conservation equation and the ``service.close`` termination
    check.  ``queue`` and error folding are :func:`check_run`'s: every
    :class:`~repro.errors.ReproError` becomes a not-ok outcome.
    """
    from repro.service import (ServiceConfig, parse_arrival_spec,
                               run_service)
    from repro.ws.config import WsConfig

    service = ServiceConfig(
        arrivals=parse_arrival_spec(arrival_spec), n_tasks=n_tasks,
        queue_capacity=queue_capacity, policy=policy, deadline=deadline,
        max_retries=max_retries, seed=service_seed)
    cfg = WsConfig(chunk_size=chunk_size, idle_strategy=idle_strategy)
    run = partial(run_service, service, threads=threads, preset=preset,
                  config=cfg, seed=seed, max_events=max_events, queue=queue)
    return _checked("service-ws", run, schedule_seed, defer, fault_spec,
                    fault_seed)


def _checked(variant: str, run, schedule_seed: Optional[int],
             defer: Sequence[int], fault_spec: Optional[str],
             fault_seed: int,
             make_monitor: Optional[
                 Callable[[], Optional[InvariantMonitor]]] = None,
             ) -> CheckOutcome:
    """The one checked cell: ``run(**kw)`` (a bound ``run_experiment``
    or ``run_service``) under the cell's schedule, fault plan and a
    fresh monitor from ``make_monitor()`` (default: an
    :class:`InvariantMonitor`; a subclass may sample more, and ``None``
    is a cell whose contract is its counts alone), folded into a
    :class:`CheckOutcome`."""
    from repro.faults.plan import parse_fault_spec

    if schedule_seed is not None and defer:
        raise ValueError("schedule_seed and defer are mutually exclusive")
    tie_break = None
    if schedule_seed is not None:
        tie_break = RandomTieBreak(schedule_seed)
    elif defer:
        tie_break = DelayTieBreak(defer)
    plan = parse_fault_spec(fault_spec, seed=fault_seed) if fault_spec else None
    monitor = (make_monitor or InvariantMonitor)()
    try:
        res = run(
            tracer=monitor, faults=plan, tie_break=tie_break,
            # Fuzzer cells never run compiled fusion: the monitor's
            # emit hooks and the tie-break/fault machinery must see
            # every transition from the Python loops.  Schedules are
            # pinned bit-identical across backends, so outcomes are
            # unchanged; tests/fastpath/test_selection.py asserts
            # Simulator.fastpath_active stays False under check.
            fastpath="pure",
        )
        if monitor is not None:
            monitor.final_check()
    except ReproError as exc:
        events = (monitor.machine.sim.events_processed
                  if monitor is not None and monitor.machine is not None
                  else 0)
        return CheckOutcome(
            ok=False, variant=variant,
            error_type=type(exc).__name__, error=str(exc),
            engine_events=events,
            monitor=monitor.summary() if monitor is not None else {},
        )
    return CheckOutcome(
        ok=True, variant=variant,
        engine_events=res.engine_events, total_nodes=res.total_nodes,
        sim_time=res.sim_time, lost_work=res.lost_work,
        dup_work=getattr(res, "dup_work", 0),
        monitor=monitor.summary() if monitor is not None else {},
        result=res,
    )
