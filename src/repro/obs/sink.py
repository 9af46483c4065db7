"""The :class:`TraceSink`: the tracer of a run.

Every hook site tests the sink's ``enabled`` flag and, when it is set,
calls ``emit(time, rank, kind, fields)`` with the kind's fields in
:data:`~repro.obs.events.EVENT_SCHEMA` order; the sink appends one
:class:`~repro.obs.events.ObsEvent`.  A disabled sink is the machine's
default, so an untraced run pays one attribute test per hook site.
On top of the records the sink keeps:

* run metadata (algorithm, thread count, simulated time, ...) filled
  in by the runner after the run completes;
* :meth:`counts_by_kind` -- a quick census of what was recorded.

Anything with ``enabled`` and that ``emit`` plugs into the same
``tracer=`` slot (the invariant monitor does).  The sink holds
everything in memory; a full-scale run emits on the order of one event
per protocol interaction (not per simulated instruction), so traces
stay proportional to the counters a run already keeps.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.obs.events import ObsEvent

__all__ = ["TraceSink"]


@dataclass
class TraceSink:
    """Collects a run's trace records and its metadata."""

    enabled: bool = True
    records: List[ObsEvent] = field(default_factory=list)
    #: Run identity and headline numbers, set by the runner via
    #: :meth:`set_meta` once the run completes.
    meta: Dict[str, Any] = field(default_factory=dict)

    def emit(self, time: float, rank: int, kind: str,
             fields: tuple = ()) -> None:
        """Record one event (hook sites test ``enabled`` first)."""
        self.records.append(ObsEvent(time, rank, kind, fields))

    def set_meta(self, **kv: Any) -> None:
        """Merge run metadata (algorithm, threads, sim_time, ...)."""
        self.meta.update(kv)

    def events(self) -> List[ObsEvent]:
        """All records, in chronological order."""
        return list(self.records)

    def counts_by_kind(self) -> Dict[str, int]:
        """``{kind: occurrences}`` over the whole trace."""
        return dict(Counter(r.kind for r in self.records))
