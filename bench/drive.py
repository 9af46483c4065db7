"""The traced run's two passes: cells driven step by step.

``run_experiment`` and ``run_service`` are each one call, so timing
them from outside cannot say where a cell's host time went.  The span
pass here repeats what they do -- tree lookup, ``Machine(...)``, fault
runtime, algorithm construction, ``spawn_all``, ``machine.run()``,
``finalize``, conservation check -- through the same public
constructors, in the same order, with one span per step.  No tracer
is attached beyond what the cell itself asks for (a fuzz cell's own
``InvariantMonitor``), so the engine's fast paths stay on; and the
pass must reproduce the timed pass's schedule checksum, since
observation must not change the schedule.

The probe pass re-runs a few cells with a :class:`TimingTree` (the
documented custom-search-space protocol, ``root()`` / ``children()``)
around the tree and a counting tracer attached, which puts a counter
at the ``uts`` boundary and counts trace records by kind at the
``ws`` / ``pgas`` boundary.
"""

from __future__ import annotations

import dataclasses
import inspect
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.check import (DelayTieBreak, InvariantMonitor, RandomTieBreak,
                         check_run, check_service_run)
from repro.errors import ProtocolError, ReproError
from repro.faults.plan import parse_fault_spec
from repro.faults.runtime import FaultRuntime
from repro.harness.parallel import shared_tree
from repro.harness.runner import expected_node_count, tree_for
from repro.metrics.counters import aggregate
from repro.net.presets import get_preset
from repro.pgas.machine import Machine
from repro.scenarios import get_scenario
from repro.service import ServiceConfig, ServiceRuntime, parse_arrival_spec
from repro.service.algorithm import ServiceAlgorithm
from repro.service.tasks import ServiceWorkload
from repro.uts.params import TreeParams
from repro.ws.algorithms import get_algorithm
from repro.ws.config import WsConfig

from spans import Recorder
from workloads import Cell, Outcome, identity_line


@dataclass
class Probe:
    """Counters of the probe pass, summed over the cells it re-runs."""

    children_calls: int = 0
    children_s: float = 0.0
    engine_events: int = 0
    records: Dict[str, int] = field(default_factory=dict)

    # -- tracer protocol (``tracer=probe``) --
    enabled = True

    def emit(self, time: float, thread: int, kind: str,
             detail: str = "") -> None:
        self.records[kind] = self.records.get(kind, 0) + 1


class TimingTree:
    """A search space that times the ``children()`` of another."""

    def __init__(self, inner: Any, probe: Probe) -> None:
        self._inner = inner
        self._probe = probe
        #: ``AlgorithmBase`` reads the compute granularity from here.
        self.params = getattr(inner, "params", None)

    def describe(self) -> str:
        return f"timed({self._inner.describe()})"

    def root(self):
        return self._inner.root()

    def children(self, node):
        t0 = time.perf_counter()
        kids = self._inner.children(node)
        self._probe.children_s += time.perf_counter() - t0
        self._probe.children_calls += 1
        return kids


@dataclass
class Driven:
    """One stepped cell: the shared outcome plus layer counters."""

    outcome: Outcome
    #: ``repro.metrics.counters.AggregateStats`` of the run, or None.
    stats: Any = None
    fault_counters: Any = None
    fastpath_active: bool = False
    #: Service cells: the runtime's ledger (retries, shed, latencies).
    service: Any = None


def _with_defaults(fn, spec: dict) -> dict:
    """``spec`` completed with ``fn``'s own keyword defaults, so the
    stepped cell follows the public entry point when a default moves."""
    bound = inspect.signature(fn).bind(**spec)
    bound.apply_defaults()
    return dict(bound.arguments)


def _tie_break(args: dict):
    if args["schedule_seed"] is not None:
        return RandomTieBreak(args["schedule_seed"])
    return DelayTieBreak(args["defer"]) if args["defer"] else None


def _machine_steps(rec: Recorder, *, threads, net, cfg, seed, tracer,
                   tie_break, queue, fastpath, max_events):
    """``Machine(...)`` and the fault runtime, as both drivers build them."""
    with rec.span("pgas.machine"):
        machine = Machine(threads=threads, net=net, seed=seed, tracer=tracer,
                          max_events=max_events, tie_break=tie_break,
                          queue=queue, fastpath=fastpath)
    with rec.span("faults.runtime"):
        fault_rt = None
        if cfg.faults is not None:
            fault_rt = FaultRuntime(cfg.faults, machine)
            machine.faults = fault_rt
    return machine, fault_rt


def _attach(tracer, algo) -> None:
    attach = getattr(tracer, "attach_algorithm", None)
    if attach is not None:
        attach(algo)


def _drive_batch(cell: Cell, rec: Recorder, probe: Optional[Probe]) -> Driven:
    """``run_experiment`` step by step, for sweep jobs and fuzz cells."""
    monitor = None
    if cell.kind == "job":
        job = cell.spec
        cfg = job.config or WsConfig(chunk_size=job.chunk_size)
        plan = dict(algorithm=job.algorithm, threads=job.threads,
                    net=get_preset(job.preset), seed=job.seed,
                    tie_break=None, queue="auto", fastpath=cfg.fastpath,
                    max_events=50_000_000)
        lookup, expected = (lambda: shared_tree(job.tree)), job.expected_nodes
    else:
        a = _with_defaults(check_run, cell.spec)
        cfg = WsConfig(chunk_size=a["chunk_size"],
                       idle_strategy=a["idle_strategy"])
        preset = a["preset"]
        if a["scenario"] is not None:
            scenario = get_scenario(a["scenario"])
            preset, cfg = scenario.preset, scenario.apply(cfg, a["threads"])
        if a["fault_spec"]:
            cfg = dataclasses.replace(cfg, faults=parse_fault_spec(
                a["fault_spec"], seed=a["fault_seed"]))
        monitor = InvariantMonitor()
        params = TreeParams.binomial(b0=a["b0"], m=a["m"], q=a["q"],
                                     seed=a["tree_seed"])
        plan = dict(algorithm=a["variant"], threads=a["threads"],
                    net=get_preset(preset), seed=a["seed"],
                    tie_break=_tie_break(a), queue=a["queue"],
                    fastpath="pure", max_events=a["max_events"])
        lookup, expected = (lambda: tree_for(params)), \
            expected_node_count(params)
    tracer = monitor if monitor is not None else probe
    algorithm = plan.pop("algorithm")

    with rec.span("uts.tree"):
        tree = lookup()
        if probe is not None:
            tree = TimingTree(tree, probe)
    machine, fault_rt = _machine_steps(rec, cfg=cfg, tracer=tracer, **plan)
    with rec.span("ws.construct"):
        algo = get_algorithm(algorithm)(machine, tree, cfg)
        _attach(tracer, algo)
    with rec.span("pgas.spawn"):
        if fault_rt is not None:
            fault_rt.attach(algo)
            machine.spawn_all(algo.guarded_main)
            fault_rt.start()
        else:
            machine.spawn_all(algo.thread_main)
    with rec.span("sim.run"):
        sim_time = machine.run()
    with rec.span("ws.finalize"):
        algo.finalize()
        lost_work = 0
        if fault_rt is not None:
            fault_rt.check_conservation()
            lost_work = fault_rt.lost_work_total(tree)
    with rec.span("harness.verify"):
        dup_work = getattr(algo, "dup_work", 0)
        if algo.total_nodes + lost_work != expected + dup_work:
            raise ProtocolError(
                f"{cell.id}: counted {algo.total_nodes} + {lost_work} lost, "
                f"expected {expected} + {dup_work} duplicated")
        if monitor is not None:
            monitor.final_check()

    events = machine.sim.events_processed
    line = identity_line(algo.name, plan["threads"], cfg.chunk_size,
                         algo.total_nodes, events, sim_time)
    _count_records(probe, monitor, events)
    return Driven(Outcome(True, line, events, algo.total_nodes, sim_time),
                  stats=aggregate(algo.stats),
                  fault_counters=fault_rt.counters if fault_rt else None,
                  fastpath_active=machine.sim.fastpath_active)


def _drive_service(cell: Cell, rec: Recorder,
                   probe: Optional[Probe]) -> Driven:
    """``run_service`` step by step, for stream and fuzz-service cells."""
    monitor = None
    if cell.kind == "service":
        s = cell.spec
        service, cfg = s["service"], s["config"]
        if s["faults"] is not None:
            cfg = dataclasses.replace(cfg, faults=s["faults"])
        plan = dict(threads=s["threads"], net=get_preset(s["preset"]),
                    seed=s["seed"], tie_break=None, queue="auto",
                    fastpath=cfg.fastpath, max_events=s["max_events"])
    else:
        a = _with_defaults(check_service_run, cell.spec)
        service = ServiceConfig(
            arrivals=parse_arrival_spec(a["arrival_spec"]),
            n_tasks=a["n_tasks"], queue_capacity=a["queue_capacity"],
            policy=a["policy"], deadline=a["deadline"],
            max_retries=a["max_retries"], seed=a["service_seed"])
        cfg = WsConfig(chunk_size=a["chunk_size"],
                       idle_strategy=a["idle_strategy"])
        if a["fault_spec"]:
            cfg = dataclasses.replace(cfg, faults=parse_fault_spec(
                a["fault_spec"], seed=a["fault_seed"]))
        monitor = InvariantMonitor()
        plan = dict(threads=a["threads"], net=get_preset(a["preset"]),
                    seed=a["seed"], tie_break=_tie_break(a),
                    queue=a["queue"], fastpath="pure",
                    max_events=a["max_events"])
    tracer = monitor if monitor is not None else probe

    with rec.span("uts.tree"):
        workload = ServiceWorkload(service.inner_params(), seed=service.seed)
        tree = TimingTree(workload, probe) if probe is not None else workload
    machine, fault_rt = _machine_steps(rec, cfg=cfg, tracer=tracer, **plan)
    with rec.span("ws.construct"):
        algo = ServiceAlgorithm(machine, tree, cfg)
        svc = ServiceRuntime(service, machine, algo, workload)
        _attach(tracer, algo)
    with rec.span("pgas.spawn"):
        if fault_rt is not None:
            fault_rt.attach(algo)
            machine.spawn_all(algo.guarded_main)
            svc.start()
            fault_rt.start()
        else:
            machine.spawn_all(algo.thread_main)
            svc.start()
    with rec.span("sim.run"):
        sim_time = machine.run()
    with rec.span("ws.finalize"):
        algo.finalize()
        svc.assert_conservation()
        if fault_rt is not None:
            fault_rt.check_conservation()
    with rec.span("harness.verify"):
        if monitor is not None:
            monitor.final_check()

    events = machine.sim.events_processed
    if cell.kind == "service":
        line = identity_line(plan["threads"], service.policy, svc.admitted,
                             svc.completed, svc.shed_total, svc.lost_tasks,
                             svc.retries, algo.total_nodes, events, sim_time)
    else:
        line = identity_line("service-ws", plan["threads"], cfg.chunk_size,
                             algo.total_nodes, events, sim_time)
    _count_records(probe, monitor, events)
    return Driven(Outcome(True, line, events, algo.total_nodes, sim_time),
                  stats=aggregate(algo.stats),
                  fault_counters=fault_rt.counters if fault_rt else None,
                  fastpath_active=machine.sim.fastpath_active, service=svc)


def _count_records(probe: Optional[Probe], monitor, events: int) -> None:
    """Fold a probed cell into the probe: a fuzz cell's records were
    counted by its own monitor, every other cell's by the probe."""
    if probe is None:
        return
    probe.engine_events += events
    if monitor is not None:
        for kind, n in monitor.counts.items():
            probe.records[kind] = probe.records.get(kind, 0) + n


def drive_cell(cell: Cell, rec: Recorder,
               probe: Optional[Probe] = None) -> Driven:
    """Step ``cell`` under one ``cell`` span; a :class:`ReproError`
    (invariant, conservation, deadlock, event budget) fails the cell."""
    with rec.span("cell", cell=cell.id):
        try:
            if cell.kind in ("job", "check"):
                return _drive_batch(cell, rec, probe)
            return _drive_service(cell, rec, probe)
        except ReproError as exc:
            return Driven(Outcome(False,
                                  error=f"{type(exc).__name__}: {exc}"))
