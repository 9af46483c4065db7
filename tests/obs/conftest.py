"""Shared fixtures: one small, fully traced reference run, and the
traced matrix every variant runs through.

The configuration here is the same one pinned by
``test_determinism.py`` and rendered into the golden Chrome trace, so
every obs test reads from the same deterministic event stream.
"""

import functools

import pytest

from repro import ALGORITHMS, TreeParams, WsConfig, run_experiment
from repro.faults.plan import parse_fault_spec
from repro.obs import TraceSink

SMALL_THREADS = 8

SMALL_KWARGS = dict(
    threads=SMALL_THREADS,
    preset="kittyhawk",
    chunk_size=4,
)


def small_tree() -> TreeParams:
    return TreeParams.binomial(b0=64, q=0.48, m=2, seed=1)


def run_small_traced():
    """A fresh traced reference run: ``(RunResult, TraceSink)``."""
    sink = TraceSink()
    result = run_experiment("upc-distmem", tree=small_tree(),
                            tracer=sink, **SMALL_KWARGS)
    return result, sink


@pytest.fixture(scope="session")
def traced_small_run():
    """The traced reference run, shared by the whole obs suite."""
    return run_small_traced()


@pytest.fixture(scope="session")
def traced_park_run():
    """The same configuration under ``idle_strategy="park"``.

    Park mode takes a different (validated, not bit-identical)
    schedule, so this run is traced separately; it feeds the
    idle-gate analyses and report section.
    """
    from repro.ws.config import WsConfig

    sink = TraceSink()
    result = run_experiment(
        "upc-distmem", tree=small_tree(), tracer=sink, verify=True,
        config=WsConfig(chunk_size=4, idle_strategy="park"),
        **{k: v for k, v in SMALL_KWARGS.items() if k != "chunk_size"})
    return result, sink


#: Every variant x poll/park x fault-free/one kill, less the cells a
#: variant rejects (the two relaxed variants take stale plans only).
KILL = "kill=3@20us"
TRACED_MATRIX = [
    (variant, idle, spec)
    for variant, cls in sorted(ALGORITHMS.items())
    for idle in ("poll", "park") for spec in (None, KILL)
    if cls.refusal(WsConfig(
        idle_strategy=idle,
        faults=spec and parse_fault_spec(spec, seed=0))) is None
]


@functools.lru_cache(maxsize=None)
def traced_cell(variant, idle, spec):
    """One traced matrix cell on the reference tree and machine:
    ``(RunResult, TraceSink)``, run once per session."""
    sink = TraceSink()
    result = run_experiment(
        variant, tree=small_tree(), threads=SMALL_THREADS,
        preset="kittyhawk", tracer=sink, verify=True,
        config=WsConfig(chunk_size=4, idle_strategy=idle),
        faults=parse_fault_spec(spec, seed=0) if spec else None)
    return result, sink
