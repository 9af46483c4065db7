"""``run_service``: one open-system service run, one ``ServiceResult``.

The run is wired by the one assembly :func:`repro.harness.run_experiment`
also uses (machine, fault runtime, tracer hooks, spawn order, end-of-run
checks); what this module adds is the service stack: a
:class:`~repro.service.tasks.ServiceWorkload` as the search space, the
:class:`~repro.service.algorithm.ServiceAlgorithm` worker loop, and a
:class:`~repro.service.runtime.ServiceRuntime` dispatcher, which the
assembly spawns *after* the workers -- so T0's bootstrap drain is
always the first worker event and the spawn order (hence the schedule)
is fixed.

End-of-run contracts, all exact, in this order:

* empty stacks (``algo.finalize()``);
* task conservation: ``admitted == completed + shed + lost`` with
  nothing left in the system (``ServiceRuntime.assert_conservation``);
* node conservation (``FaultRuntime.check_conservation``) and loss
  attribution, as in batch runs.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.plan import FaultPlan
from repro.harness.runner import _run
from repro.net.model import NetworkModel
from repro.obs.sink import TraceSink
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
    workload = ServiceWorkload(service.inner_params(), seed=service.seed)

    def build(machine, space, cfg):
        algo = ServiceAlgorithm(machine, space, cfg)
        return algo, ServiceRuntime(service, machine, algo, space)

    algo, svc, _, desc, fields = _run(
        workload, threads, preset, chunk_size, build, net=net, config=config,
        seed=seed, tracer=tracer, max_events=max_events, faults=faults,
        tie_break=tie_break, queue=queue, fastpath=fastpath)
    if fields["trace"] is not None:
        fields["trace"].set_meta(
            arrivals=service.arrivals.describe(), policy=service.policy,
            admitted=svc.admitted, completed=svc.completed,
            shed=svc.shed_total, lost_tasks=svc.lost_tasks,
        )
    lat = sorted(svc.latencies)
    return ServiceResult(
        arrival_description=service.arrivals.describe(),
        service_description=desc,
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
        **fields,
    )
