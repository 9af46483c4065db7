"""Top-level experiment runner: one call, one :class:`RunResult`.

    >>> from repro import run_experiment, TreeParams
    >>> res = run_experiment("upc-distmem",
    ...                      tree=TreeParams.binomial(b0=32, q=0.45, seed=1),
    ...                      threads=8, preset="kittyhawk", chunk_size=4)
    >>> res.total_nodes > 0
    True
"""

from __future__ import annotations

import time
from dataclasses import replace as _dc_replace
from typing import Optional

from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.faults.runtime import FaultRuntime
from repro.metrics.report import RunResult
from repro.net.model import NetworkModel
from repro.net.presets import get_preset
from repro.obs.sink import TraceSink
from repro.pgas.machine import Machine
from repro.uts.materialized import expected_node_count, tree_for
from repro.uts.params import TreeParams
from repro.ws.algorithms import get_algorithm
from repro.ws.config import WsConfig

__all__ = ["run_experiment", "expected_node_count", "tree_for"]


def run_experiment(
    algorithm: str,
    tree,
    threads: int,
    preset: str = "kittyhawk",
    chunk_size: int = 8,
    *,
    net: Optional[NetworkModel] = None,
    config: Optional[WsConfig] = None,
    seed: int = 0,
    verify: bool = False,
    tracer: Optional[TraceSink] = None,
    max_events: int = 50_000_000,
    faults: Optional[FaultPlan] = None,
    tie_break=None,
    queue: str = "auto",
    fastpath: Optional[str] = None,
) -> RunResult:
    """Run one parallel UTS search on the simulated machine.

    Parameters
    ----------
    algorithm:
        One of the Figure-3 labels (``upc-distmem``, ``mpi-ws``, ...).
    tree:
        The UTS tree to search (a :class:`~repro.uts.params.TreeParams`,
        resolved through the :func:`tree_for` expansion cache), or any
        custom implicit search space exposing ``root() -> node``
        and ``children(node) -> list`` -- the work-stealing framework is
        workload-agnostic (see ``examples/custom_search_space.py``).
        ``verify=True`` requires ``TreeParams`` (the sequential oracle).
    threads:
        Number of simulated UPC threads.
    preset:
        Platform cost model (``kittyhawk``, ``topsail``, ``altix``,
        ``sharedmem``); ignored when ``net`` is given explicitly.
    chunk_size:
        Work-stealing granularity ``k``; ignored when ``config`` is
        given explicitly.
    seed:
        Seed for the simulation's random streams (probe orders).  The
        tree's own seed lives in ``tree.seed``.
    verify:
        If True, check against :func:`expected_node_count` and raise
        :class:`~repro.errors.ProtocolError` on any mismatch.  On a
        faulted run the check is ``total_nodes + lost_work ==
        expected`` -- fail-stop losses must be *exactly* accounted.
    faults:
        A :class:`~repro.faults.plan.FaultPlan` to inject deterministic
        faults (overrides ``config.faults`` when given).  The run then
        activates the recovery protocols, watchdogs, and the
        node-conservation checker.
    tie_break:
        Optional schedule-exploration policy (see :mod:`repro.check`),
        forwarded to the :class:`~repro.sim.engine.Simulator`.  ``None``
        keeps the canonical bit-identical FIFO schedule.
    queue:
        Event-queue backend: ``"auto"`` (default) is the heap at every
        thread count -- the one queue the compiled run loop drives;
        ``"bucket"`` asks for the calendar queue.  Dispatch order --
        and therefore every result -- is identical across backends.
    fastpath:
        Execution backend: ``"auto"`` (default) uses the compiled
        :mod:`repro.fastpath` core when built, ``"pure"`` forces the
        pure-Python loops, ``"fast"`` requires the compiled core
        (:class:`~repro.errors.ConfigError` when unavailable).  The
        ``REPRO_FASTPATH`` environment variable overrides this.  Both
        backends execute bit-identical schedules; ``None`` defers to
        ``config.fastpath`` (itself defaulting to auto).

    Returns
    -------
    RunResult
        Counts, simulated time, and the derived figure metrics.
    """
    if verify and not isinstance(tree, TreeParams):
        raise ConfigError(
            "verify=True needs a TreeParams tree (the sequential "
            "oracle); pass verify=False for custom search spaces "
            "and check result.total_nodes yourself"
        )

    def build(machine, space, cfg):
        return get_algorithm(algorithm)(machine, space, cfg), None

    algo, _, cfg, desc, fields = _run(
        tree, threads, preset, chunk_size, build, net=net, config=config,
        seed=seed, tracer=tracer, max_events=max_events, faults=faults,
        tie_break=tie_break, queue=queue, fastpath=fastpath)
    result = RunResult(algorithm=algo.name, chunk_size=cfg.chunk_size,
                       tree_description=desc,
                       dup_work=getattr(algo, "dup_work", 0), **fields)
    if verify:
        result.verify(expected_node_count(tree))
    return result


def _run(space, threads: int, preset: str, chunk_size: int, build, *,
         net: Optional[NetworkModel], config: Optional[WsConfig], seed: int,
         tracer, max_events: int, faults: Optional[FaultPlan], tie_break,
         queue: str, fastpath: Optional[str]):
    """The one wiring of a run, batch or service: resolve the search
    space, platform, config, fault plan and backend; build the machine
    and the fault runtime, which must exist before ``build(machine,
    space, cfg)`` makes the algorithm, for every hook site to bind it.
    ``build`` also returns a dispatcher (the service stream's
    ``ServiceRuntime``, else None): it starts after the workers spawn
    and before the fault watchdogs, and its ``assert_conservation``
    runs after ``finalize`` and before node conservation.

    Returns ``(algorithm, dispatcher, config, space description,
    fields)``, ``fields`` being what every result reports.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    if isinstance(space, TreeParams):
        space, desc = tree_for(space), space.describe()
    else:
        describe = getattr(space, "describe", None)
        desc = describe() if callable(describe) else repr(space)
    network = net if net is not None else get_preset(preset)
    cfg = config if config is not None else WsConfig(chunk_size=chunk_size)
    if faults is not None:
        cfg = _dc_replace(cfg, faults=faults)
    if fastpath is None:
        fastpath = cfg.fastpath
    machine = Machine(threads=threads, net=network, seed=seed, tracer=tracer,
                      max_events=max_events, tie_break=tie_break, queue=queue,
                      fastpath=fastpath)
    fault_rt: Optional[FaultRuntime] = None
    if cfg.faults is not None:
        fault_rt = FaultRuntime(cfg.faults, machine)
        machine.faults = fault_rt
    algo, dispatcher = build(machine, space, cfg)
    # Online-checker hook (repro.check): a tracer that wants white-box
    # access to the algorithm's ledgers binds here, after construction
    # and before the first event runs.
    attach = getattr(tracer, "attach_algorithm", None)
    if attach is not None:
        attach(algo)

    host_t0 = time.perf_counter()
    if fault_rt is not None:
        fault_rt.attach(algo)
        machine.spawn_all(algo.guarded_main)
    else:
        machine.spawn_all(algo.thread_main)
    # After the workers: T0's bootstrap is always the first event.
    if dispatcher is not None:
        dispatcher.start()
    if fault_rt is not None:
        fault_rt.start()
    sim_time = machine.run()
    host_seconds = time.perf_counter() - host_t0
    algo.finalize()
    if dispatcher is not None:
        dispatcher.assert_conservation()
    lost_work = 0
    if fault_rt is not None:
        fault_rt.check_conservation()
        lost_work = fault_rt.lost_work_total(space)

    trace = tracer if isinstance(tracer, TraceSink) else None
    if trace is not None:
        trace.set_meta(
            algorithm=algo.name, threads=threads, chunk_size=cfg.chunk_size,
            machine=network.name, tree=desc, seed=seed,
            sim_time=sim_time, total_nodes=algo.total_nodes,
            faulted=cfg.faults is not None,
        )
    fields = dict(
        n_threads=threads, machine_name=network.name,
        total_nodes=algo.total_nodes, sim_time=sim_time,
        node_visit_time=algo.t_node,  # includes compute granularity
        per_thread=algo.stats, host_seconds=host_seconds,
        engine_events=machine.sim.events_processed, lost_work=lost_work,
        fault_counters=fault_rt.counters if fault_rt is not None else None,
        trace=trace)
    return algo, dispatcher, cfg, desc, fields
