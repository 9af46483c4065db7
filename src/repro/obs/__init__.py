"""Structured observability for simulation runs.

``repro.obs`` turns a run's trace into artifacts you can *read*:

* :class:`TraceSink` -- the tracer: it collects one typed
  :class:`ObsEvent` per hook-site call plus run metadata.  Pass one as
  ``run_experiment(..., tracer=TraceSink())``; the runner fills its
  ``meta`` and hands it back as ``RunResult.trace``.
* :data:`EVENT_SCHEMA` -- every kind's field names, in the order hook
  sites pass the values, and what the event means.
* Exporters -- :func:`dump_chrome_trace` (Perfetto /
  ``chrome://tracing``, one track per rank) and :func:`dump_jsonl`
  (diffable event log, loadable with :func:`load_jsonl`).
* Analyses -- :func:`state_occupancy` (the Fig.-1 "time in working
  state" table), :func:`steal_matrix` (who stole from whom),
  :func:`steal_latency_histogram`, :func:`termination_breakdown`.
* :func:`render_trace_report` -- the whole thing as one Markdown
  document (the CLI's ``--trace run.md`` and ``tools/trace_report.py``).

Tracing is off unless a tracer is passed: every hook site tests one
``enabled`` flag and appends to a list, so a run without a sink is
bit-identical (same engine events, same times) to one recorded before
the hooks existed.  See ``docs/observability.md`` for the guide.

Example (no simulation needed -- a sink accepts events directly):

>>> sink = TraceSink()
>>> sink.emit(0.0, 1, "steal.req", (0,))
>>> sink.emit(5e-6, 1, "steal", (0, 1, 8))
>>> sink.counts_by_kind()
{'steal.req': 1, 'steal': 1}
>>> ev = sink.events()[1]
>>> (ev.rank, ev.args["from"], ev.args["nodes"])
(1, 0, 8)
>>> steal_matrix(sink.events(), n_threads=2)[0]
[[0, 0], [1, 0]]
>>> [(o, round(dt * 1e6)) for o, dt in steal_latencies(sink.events())]
[('ok', 5)]
"""

from repro.obs.analysis import (
    idle_summary,
    service_summary,
    state_occupancy,
    steal_latencies,
    steal_latency_histogram,
    steal_matrix,
    termination_breakdown,
)
from repro.obs.chrome import dump_chrome_trace, to_chrome_trace
from repro.obs.events import EVENT_SCHEMA, FIELD_TYPES, ObsEvent
from repro.obs.jsonl import dump_jsonl, load_jsonl, to_jsonl_lines
from repro.obs.report import render_trace_report
from repro.obs.sink import TraceSink

__all__ = [
    "TraceSink",
    "ObsEvent",
    "EVENT_SCHEMA",
    "FIELD_TYPES",
    "to_chrome_trace",
    "dump_chrome_trace",
    "to_jsonl_lines",
    "dump_jsonl",
    "load_jsonl",
    "state_occupancy",
    "steal_matrix",
    "steal_latencies",
    "steal_latency_histogram",
    "termination_breakdown",
    "idle_summary",
    "service_summary",
    "render_trace_report",
]
