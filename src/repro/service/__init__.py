"""Open-system service mode: continuous task streams over the pool.

Every other entry point in this repo runs one *closed batch*: a single
tree is drained and the run ends.  :func:`run_service` instead drives
the work-stealing pool as an open system -- independent query tasks
(each a bounded subtree search) arrive over simulated time from a
deterministic :class:`ArrivalProcess`, pass through a bounded admission
queue with configurable backpressure (block / shed-oldest /
shed-newest), optionally carry per-attempt deadlines with
retry-with-backoff, and are load-balanced across the pool by the same
steal protocols the batch runs use.  The service survives overload
(bounded queue + exact shed accounting) and fault storms (windowed
kill bursts via the extended ``FaultPlan`` grammar), and reports
per-task latency percentiles, the queue-depth timeline, and exact task
conservation: ``admitted == completed + shed + lost`` once drained.

See ``docs/service-mode.md`` for the full model and
``repro-uts serve`` / ``repro-uts experiment E12`` for the entry points.
"""

from repro.service.arrivals import ArrivalProcess, parse_arrival_spec
from repro.service.driver import run_service
from repro.service.result import ServiceResult
from repro.service.runtime import ServiceConfig, ServiceRuntime

__all__ = [
    "ArrivalProcess",
    "ServiceConfig",
    "ServiceResult",
    "ServiceRuntime",
    "parse_arrival_spec",
    "run_service",
]
