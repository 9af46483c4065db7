"""The observability determinism contract (docs/observability.md).

Two guarantees, both pinned against captured baselines:

* tracing **off** is free: the hook sites added for `repro.obs` leave
  untraced runs bit-identical to the pre-obs seed (same
  ``engine_events``, ``total_nodes``, ``sim_time``);
* tracing **on** never perturbs the run: a traced run matches the
  untraced one in every ``RunResult`` field, and the trace itself is
  identical across repeats.
"""

import ast
import functools
import sys
from pathlib import Path

import pytest

import repro
from repro import ALGORITHMS, WsConfig, run_experiment
from repro.faults.plan import parse_fault_spec
from repro.harness.figures import figure4
from repro.obs import to_jsonl_lines
from repro.service import ArrivalProcess, ServiceConfig, run_service

from tests.obs.conftest import SMALL_KWARGS, run_small_traced, small_tree

# Captured from the pre-obs seed for the conftest reference
# configuration (upc-distmem, binomial b0=64 q=0.48 m=2 seed=1,
# 8 threads, kittyhawk, chunk_size=4).
PIN_ENGINE_EVENTS = 656
PIN_TOTAL_NODES = 3009
PIN_SIM_TIME = 0.0005093102231520224

# Captured from the pre-obs seed: engine_events for every cell of the
# fig4 "test"-scale sweep, covering all of the sweep's algorithms.
PIN_FIG4_TEST_ENGINE_EVENTS = [
    1038, 557, 429, 2268, 921, 454, 2398, 881, 445, 2653, 1138, 341,
    2141, 1246, 1146,
]


def run_small_untraced():
    return run_experiment("upc-distmem", tree=small_tree(), **SMALL_KWARGS)


def test_untraced_run_matches_pre_obs_seed():
    result = run_small_untraced()
    assert result.engine_events == PIN_ENGINE_EVENTS
    assert result.total_nodes == PIN_TOTAL_NODES
    assert result.sim_time == PIN_SIM_TIME


def test_traced_run_is_bit_identical_to_untraced(traced_small_run):
    traced, sink = traced_small_run
    untraced = run_small_untraced()
    assert traced.engine_events == untraced.engine_events
    assert traced.total_nodes == untraced.total_nodes
    assert traced.sim_time == untraced.sim_time
    assert traced.stats.steals_ok == untraced.stats.steals_ok
    assert traced.stats.steal_attempts == untraced.stats.steal_attempts
    assert traced.stats.nodes_stolen == untraced.stats.nodes_stolen
    assert traced.working_fraction == untraced.working_fraction
    # ... and the sink actually recorded the run.
    assert len(sink.records) > 0
    assert traced.trace is sink
    assert untraced.trace is None


def test_trace_itself_is_deterministic(traced_small_run):
    _, first = traced_small_run
    _, second = run_small_traced()
    assert to_jsonl_lines(second.events(), second.meta) \
        == to_jsonl_lines(first.events(), first.meta)


def test_fig4_test_sweep_matches_pre_obs_seed():
    """The whole test-scale Figure-4 sweep, untraced, is untouched."""
    fig = figure4("test")
    assert [r.engine_events for r in fig.sweep.runs] \
        == PIN_FIG4_TEST_ENGINE_EVENTS


# -- tracing off builds nothing ------------------------------------------
#
# docs/performance.md: "a record's fields are built only behind one
# tracer.enabled test".  Two observers hold the code to it: a disabled
# tracer whose ``emit`` raises (no hook site may call it), and a line
# spy over every source line that builds the fields of an ``emit`` /
# ``trace`` call (none may execute).

class DisabledTracerThatRaises:
    enabled = False

    def emit(self, time, rank, kind, fields=()):
        raise AssertionError(f"emit({kind!r}) reached a disabled tracer")


@functools.lru_cache(maxsize=None)
def _field_lines():
    """``{filename: lines}`` building the fields passed to a trace call
    (``emit``'s fourth argument, ``trace``'s second)."""
    lines = {}
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("trace", "emit")):
                first = 3 if node.func.attr == "emit" else 1
                for arg in node.args[first:]:
                    lines.setdefault(str(path), set()).update(
                        range(arg.lineno, arg.end_lineno + 1))
    return lines


UNTRACED_CELLS = [(variant, None) for variant in sorted(ALGORITHMS)] + [
    ("mpi-ws", "drop=0.05,dup=0.05,delay=0.1,kill=3@103us"),
    ("service-ws", "kill=3@103us"),
]


@pytest.mark.parametrize("variant, spec", UNTRACED_CELLS)
def test_untraced_run_never_emits_or_builds_fields(variant, spec):
    targets = _field_lines()
    assert sum(map(len, targets.values())) > 60  # the spy watches something
    built = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in targets[
                frame.f_code.co_filename]:
            built.append((frame.f_code.co_filename, frame.f_lineno))
        return local

    def scoped(frame, event, arg):
        return local if frame.f_code.co_filename in targets else None

    kw = dict(threads=8, tracer=DisabledTracerThatRaises(), fastpath="pure",
              config=WsConfig(chunk_size=4),
              faults=parse_fault_spec(spec, seed=0) if spec else None)
    previous = sys.gettrace()
    sys.settrace(scoped)
    try:
        if variant == "service-ws":
            result = run_service(
                ServiceConfig(arrivals=ArrivalProcess(rate=8e5), n_tasks=60,
                              queue_capacity=16, policy="shed-oldest",
                              deadline=150e-6, max_retries=2, seed=3),
                seed=1, **kw)
        else:
            result = run_experiment(variant, small_tree(), **kw)
    finally:
        sys.settrace(previous)
    assert result.total_nodes > 0
    assert built == []
