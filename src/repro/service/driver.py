"""``run_service``: one open-system service run, one ``ServiceResult``.

Mirrors :func:`repro.harness.run_experiment`'s wiring (machine, fault
runtime, tracer hooks) around the service stack: a
:class:`~repro.service.tasks.ServiceWorkload` as the search space, the
:class:`~repro.service.algorithm.ServiceAlgorithm` worker loop, and a
:class:`~repro.service.runtime.ServiceRuntime` dispatcher spawned
*after* the workers -- so T0's bootstrap drain is always the first
worker event and the spawn order (hence the schedule) is fixed.

End-of-run contracts, all exact:

* node conservation (``FaultRuntime.check_conservation``) and loss
  attribution, as in batch runs;
* task conservation: ``admitted == completed + shed + lost`` with
  nothing left in the system (``ServiceRuntime.assert_conservation``);
* empty stacks (``algo.finalize()``).
"""

from __future__ import annotations

import time
from dataclasses import replace as _dc_replace
from typing import Optional

from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.faults.runtime import FaultRuntime
from repro.net.model import NetworkModel
from repro.net.presets import get_preset
from repro.obs.sink import TraceSink
from repro.pgas.machine import Machine
from repro.service.algorithm import ServiceAlgorithm
from repro.service.result import ServiceResult, percentile
from repro.service.runtime import ServiceConfig, ServiceRuntime
from repro.service.tasks import ServiceWorkload
from repro.ws.config import WsConfig

__all__ = ["run_service"]


def run_service(
    service: ServiceConfig,
    threads: int,
    preset: str = "kittyhawk",
    chunk_size: int = 2,
    *,
    net: Optional[NetworkModel] = None,
    config: Optional[WsConfig] = None,
    seed: int = 0,
    tracer: Optional[TraceSink] = None,
    max_events: int = 50_000_000,
    faults: Optional[FaultPlan] = None,
    tie_break=None,
    queue: str = "auto",
    fastpath: Optional[str] = None,
) -> ServiceResult:
    """Run one open-system service stream on the simulated machine.

    Parameters mirror :func:`~repro.harness.run_experiment` where they
    overlap (``queue="auto"``: the heap); ``service`` replaces the tree
    (the stream and per-task shape live there), and the default
    ``chunk_size`` is smaller: service tasks are small subtrees.
    ``config.idle_strategy = "park"`` is the intended production mode:
    arrivals wake a parked pool (one per admission; steals ramp the rest).
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    network = net if net is not None else get_preset(preset)
    cfg = config if config is not None else WsConfig(chunk_size=chunk_size)
    if faults is not None:
        cfg = _dc_replace(cfg, faults=faults)
    workload = ServiceWorkload(service.inner_params(), seed=service.seed)
    if fastpath is None:
        fastpath = cfg.fastpath
    machine = Machine(threads=threads, net=network, seed=seed, tracer=tracer,
                      max_events=max_events, tie_break=tie_break, queue=queue,
                      fastpath=fastpath)
    fault_rt: Optional[FaultRuntime] = None
    if cfg.faults is not None:
        fault_rt = FaultRuntime(cfg.faults, machine)
        machine.faults = fault_rt
    algo = ServiceAlgorithm(machine, workload, cfg)
    svc = ServiceRuntime(service, machine, algo, workload)
    attach = getattr(tracer, "attach_algorithm", None)
    if attach is not None:
        attach(algo)

    host_t0 = time.perf_counter()
    if fault_rt is not None:
        fault_rt.attach(algo)
        machine.spawn_all(algo.guarded_main)
        svc.start()
        fault_rt.start()
    else:
        machine.spawn_all(algo.thread_main)
        svc.start()
    sim_time = machine.run()
    host_seconds = time.perf_counter() - host_t0
    algo.finalize()
    svc.assert_conservation()
    lost_work = 0
    if fault_rt is not None:
        fault_rt.check_conservation()
        lost_work = fault_rt.lost_work_total(workload)

    lat = sorted(svc.latencies)
    result = ServiceResult(
        n_threads=threads,
        machine_name=network.name,
        arrival_description=service.arrivals.describe(),
        service_description=workload.describe(),
        policy=service.policy,
        admitted=svc.admitted,
        completed=svc.completed,
        shed=dict(svc.shed),
        lost_tasks=svc.lost_tasks,
        retries=svc.retries,
        deadline_miss=svc.deadline_miss,
        block_waits=svc.block_waits,
        lat_p50=percentile(lat, 50.0),
        lat_p95=percentile(lat, 95.0),
        lat_p99=percentile(lat, 99.0),
        lat_mean=sum(lat) / len(lat) if lat else 0.0,
        lat_max=lat[-1] if lat else 0.0,
        queue_peak=svc.queue_peak,
        depth_timeline=svc.depth_timeline,
        total_nodes=algo.total_nodes,
        lost_work=lost_work,
        sim_time=sim_time,
        node_visit_time=algo.t_node,
        per_thread=algo.stats,
        host_seconds=host_seconds,
        engine_events=machine.sim.events_processed,
        fault_counters=fault_rt.counters if fault_rt is not None else None,
    )
    if isinstance(tracer, TraceSink):
        tracer.set_meta(
            algorithm=algo.name, threads=threads, chunk_size=cfg.chunk_size,
            machine=network.name, tree=workload.describe(), seed=seed,
            sim_time=sim_time, total_nodes=algo.total_nodes,
            faulted=cfg.faults is not None,
            arrivals=service.arrivals.describe(), policy=service.policy,
            admitted=svc.admitted, completed=svc.completed,
            shed=svc.shed_total, lost_tasks=svc.lost_tasks,
        )
        result.trace = tracer
    return result
