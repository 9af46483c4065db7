"""Service-run results: the open-system counterpart of ``RunResult``.

Where a batch run reports one tree's drain time, a service run reports
the stream's shape: task throughput, per-task latency percentiles
(measured from first arrival, so retries count against the SLO), exact
shed/retry/loss accounting, and the admission queue's depth profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faults.counters import FaultCounters
from repro.metrics.counters import AggregateStats, aggregate

__all__ = ["ServiceResult", "percentile"]


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation).

    ``sorted_values`` must be ascending; returns 0.0 when empty so
    overload cells that complete nothing still serialize cleanly.
    """
    if not sorted_values:
        return 0.0
    n = len(sorted_values)
    rank = math.ceil(q * n / 100.0)
    rank = max(1, min(n, rank))
    return sorted_values[rank - 1]


@dataclass
class ServiceResult:
    """Outcome of one open-system service run."""

    n_threads: int
    machine_name: str
    arrival_description: str
    service_description: str
    policy: str
    # -- the task ledger (closed exactly: admitted == completed + shed
    # + lost, asserted by the driver before this object is built) --
    admitted: int
    completed: int
    shed: Dict[str, int]
    lost_tasks: int
    retries: int
    deadline_miss: int
    block_waits: int
    # -- latency profile (seconds, from first arrival to completion) --
    lat_p50: float
    lat_p95: float
    lat_p99: float
    lat_mean: float
    lat_max: float
    # -- queue profile --
    queue_peak: int
    #: (time, depth) at every depth change; drives the depth timeline
    #: in reports.  Excluded from repr (can be long).
    depth_timeline: List[Tuple[float, float]] = field(repr=False)
    # -- machine-level outcome --
    total_nodes: int = 0
    lost_work: int = 0
    sim_time: float = 0.0
    node_visit_time: float = 0.0
    per_thread: list = field(default_factory=list, repr=False)
    host_seconds: float = 0.0
    engine_events: int = 0
    fault_counters: Optional[FaultCounters] = field(default=None, repr=False)
    trace: Optional[object] = field(default=None, repr=False)

    # -- derived -------------------------------------------------------------

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    @property
    def shed_fraction(self) -> float:
        return self.shed_total / self.admitted if self.admitted else 0.0

    @property
    def goodput(self) -> float:
        """Completed tasks per simulated second."""
        return self.completed / self.sim_time if self.sim_time > 0 else 0.0

    @property
    def stats(self) -> AggregateStats:
        return aggregate(self.per_thread)

    def as_dict(self) -> dict:
        """JSON-ready cell (a row of ``repro-uts experiment E12 --json``)."""
        return {
            "threads": self.n_threads,
            "machine": self.machine_name,
            "arrivals": self.arrival_description,
            "service": self.service_description,
            "policy": self.policy,
            "admitted": self.admitted,
            "completed": self.completed,
            "shed": dict(self.shed),
            "shed_total": self.shed_total,
            "lost_tasks": self.lost_tasks,
            "retries": self.retries,
            "deadline_miss": self.deadline_miss,
            "block_waits": self.block_waits,
            "lat_p50": self.lat_p50,
            "lat_p95": self.lat_p95,
            "lat_p99": self.lat_p99,
            "lat_mean": self.lat_mean,
            "lat_max": self.lat_max,
            "queue_peak": self.queue_peak,
            "total_nodes": self.total_nodes,
            "lost_work": self.lost_work,
            "sim_time": self.sim_time,
            "engine_events": self.engine_events,
        }

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"service T={self.n_threads:<5d} {self.policy:<11s} "
            f"adm={self.admitted:>6d} done={self.completed:>6d} "
            f"shed={self.shed_total:>5d} lost={self.lost_tasks:>3d} "
            f"retry={self.retries:>4d} "
            f"p50={self.lat_p50 * 1e6:8.1f}us p99={self.lat_p99 * 1e6:9.1f}us "
            f"qpeak={self.queue_peak:>4d} "
            f"time={self.sim_time * 1e3:8.2f}ms"
        )
