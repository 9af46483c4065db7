"""Tests for the execution-timeline renderer."""

import pytest

from repro import TreeParams, run_experiment
from repro.metrics import STATE_CHARS, render_timeline
from repro.metrics.states import BARRIER, SEARCHING, STEALING, WORKING
from repro.obs import TraceSink


@pytest.fixture(scope="module")
def traced_run():
    tracer = TraceSink()
    res = run_experiment("upc-distmem",
                         tree=TreeParams.binomial(b0=100, q=0.49, seed=0),
                         threads=6, preset="kittyhawk", chunk_size=4,
                         tracer=tracer, verify=True)
    return tracer, res


def test_state_chars_cover_all_states():
    assert set(STATE_CHARS) == {WORKING, SEARCHING, STEALING, BARRIER}
    assert len(set(STATE_CHARS.values())) == 4


def test_rows_per_thread(traced_run):
    tracer, res = traced_run
    out = render_timeline(tracer, 6, res.sim_time, width=40)
    lines = out.splitlines()
    thread_rows = [l for l in lines if l.startswith("T")]
    assert len(thread_rows) == 6
    for row in thread_rows:
        assert len(row) == 5 + 40  # "Tn   " prefix + buckets


def test_thread0_starts_working(traced_run):
    tracer, res = traced_run
    out = render_timeline(tracer, 6, res.sim_time, width=40)
    t0 = next(l for l in out.splitlines() if l.startswith("T0"))
    assert t0[5] == "W"


def test_other_threads_start_searching(traced_run):
    tracer, res = traced_run
    out = render_timeline(tracer, 6, res.sim_time, width=40)
    t1 = next(l for l in out.splitlines() if l.startswith("T1"))
    assert t1[5] == "s"


def test_all_threads_visit_working(traced_run):
    tracer, res = traced_run
    out = render_timeline(tracer, 6, res.sim_time, width=60)
    for l in out.splitlines():
        if l.startswith("T"):
            assert "W" in l, f"thread never worked: {l}"


def test_elision_of_many_threads(traced_run):
    tracer, res = traced_run
    out = render_timeline(tracer, 6, res.sim_time, width=20, max_threads=3)
    assert "3 more threads elided" in out


def test_legend_present(traced_run):
    tracer, res = traced_run
    out = render_timeline(tracer, 6, res.sim_time)
    assert "legend:" in out
    assert "W=working" in out


def test_empty_timeline():
    assert render_timeline(TraceSink(), 4, 0.0) == "(empty timeline)"


def test_null_tracer_yields_initial_states_only():
    """Without records, each row is its thread's initial state."""
    out = render_timeline(TraceSink(), 2, 1.0, width=10)
    rows = [l for l in out.splitlines() if l.startswith("T")]
    assert rows[0][5:] == "W" * 10
    assert rows[1][5:] == "s" * 10
