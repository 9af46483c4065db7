"""Derived analyses agree with the run's own counters and accounting."""

import pytest

from repro.metrics.states import SEARCHING, STATES, WORKING
from repro.obs import (TraceSink, service_summary, state_occupancy,
                       steal_latencies, steal_latency_histogram,
                       steal_matrix, termination_breakdown)
from repro.service import ServiceConfig, run_service
from repro.service.result import percentile

from tests.obs.conftest import SMALL_THREADS, TRACED_MATRIX, traced_cell


def test_occupancy_matches_state_timer(traced_small_run):
    """Trace-derived occupancy == counter-derived working_fraction."""
    result, sink = traced_small_run
    occ = state_occupancy(sink.events(), n_threads=SMALL_THREADS,
                          sim_time=result.sim_time)
    assert set(occ) == set(range(SMALL_THREADS))
    for rank, per_state in occ.items():
        assert set(per_state) == set(STATES)
        assert sum(per_state.values()) == pytest.approx(result.sim_time,
                                                        rel=1e-9)
        assert all(v >= 0.0 for v in per_state.values())
    total = sum(sum(v.values()) for v in occ.values())
    working = sum(v[WORKING] for v in occ.values())
    assert working / total == pytest.approx(result.working_fraction,
                                            rel=1e-9)


def test_steal_matrix_matches_counters(traced_small_run):
    result, sink = traced_small_run
    steals, nodes = steal_matrix(sink.events(), SMALL_THREADS)
    assert sum(map(sum, steals)) == result.stats.steals_ok
    # A thread never steals from itself.
    assert all(steals[r][r] == 0 for r in range(SMALL_THREADS))
    # Every successful steal moved at least one node.
    for thief in range(SMALL_THREADS):
        for victim in range(SMALL_THREADS):
            if steals[thief][victim]:
                assert nodes[thief][victim] >= steals[thief][victim]
            else:
                assert nodes[thief][victim] == 0


def test_steal_latencies_cover_attempts(traced_small_run):
    result, sink = traced_small_run
    lat = steal_latencies(sink.events())
    assert all(dt >= 0.0 for _, dt in lat)
    ok = sum(1 for outcome, _ in lat if outcome == "ok")
    assert ok == result.stats.steals_ok
    # Every closed attempt is a success or a named failure reason.
    outcomes = {outcome for outcome, _ in lat}
    assert "ok" in outcomes
    assert outcomes <= {"ok", "busy", "raced", "empty", "denied",
                        "giveup", "timeout"}


def test_latency_histogram_buckets(traced_small_run):
    _, sink = traced_small_run
    lat = steal_latencies(sink.events())
    hist = steal_latency_histogram(sink.events())
    assert sum(n for _, _, n in hist) == len(lat)
    # Power-of-two microsecond edges, contiguous.
    for (lo, hi, _), (lo2, _, _) in zip(hist, hist[1:]):
        assert hi == lo2
        assert hi == (1.0 if lo == 0.0 else lo * 2)


def test_termination_breakdown(traced_small_run):
    result, sink = traced_small_run
    td = termination_breakdown(sink.events(), SMALL_THREADS,
                               result.sim_time)
    assert td["sim_time"] == result.sim_time
    assert len(td["barrier_seconds"]) == SMALL_THREADS
    # upc-distmem announces termination through the streamlined barrier.
    assert td["announce_time"] is not None
    assert 0.0 < td["announce_time"] <= result.sim_time
    assert td["tail_seconds"] == pytest.approx(
        result.sim_time - td["announce_time"])
    # Everyone enters the final barrier at least once and leaves at
    # most as often as they entered.
    for rank in range(SMALL_THREADS):
        assert td["barrier_entries"][rank] >= 1
        assert td["barrier_exits"][rank] <= td["barrier_entries"][rank]


def test_analyses_accept_empty_traces():
    assert state_occupancy([], n_threads=2, sim_time=1.0)[1] \
        == {s: (1.0 if s == SEARCHING else 0.0) for s in STATES}
    assert steal_matrix([], 2) == ([[0, 0], [0, 0]], [[0, 0], [0, 0]])
    assert steal_latencies([]) == []
    assert steal_latency_histogram([]) == []
    td = termination_breakdown([], 2, 1.0)
    assert td["announce_time"] is None and td["tail_seconds"] is None


def test_idle_summary_pairs_parks_with_wakes(traced_park_run):
    from repro.obs import idle_summary
    result, sink = traced_park_run
    ids = idle_summary(sink.events(), SMALL_THREADS)
    assert ids["total_parks"] > 0
    assert ids["total_parks"] == sum(ids["parks"])
    assert ids["total_parked_seconds"] == pytest.approx(
        sum(ids["parked_seconds"]))
    for rank in range(SMALL_THREADS):
        # Every park is eventually answered by a wake (termination
        # wake_all empties the gate), and never more than once.
        assert ids["wakes"][rank] == ids["parks"][rank]
        assert 0.0 <= ids["parked_seconds"][rank] <= result.sim_time
    # Rank 0 starts with the whole tree: it never parks first.
    assert ids["parks"][0] <= max(ids["parks"])
    # Trace counters and gate counters tell the same story.
    counts = sink.counts_by_kind()
    assert counts["idle.park"] == ids["total_parks"]
    assert counts["idle.wake"] == sum(ids["wakes"])


def test_idle_summary_zero_on_polling_run(traced_small_run):
    from repro.obs import idle_summary
    _, sink = traced_small_run
    ids = idle_summary(sink.events(), SMALL_THREADS)
    assert ids["total_parks"] == 0
    assert ids["total_parked_seconds"] == 0.0
    assert ids["parks"] == [0] * SMALL_THREADS
    assert ids["wakes"] == [0] * SMALL_THREADS


@pytest.mark.parametrize("variant, idle, spec", TRACED_MATRIX)
def test_analyses_agree_with_counters_on_every_variant(variant, idle, spec):
    """The trace replays the run's own accounting exactly: per rank,
    the state occupancy is the ``StateTimer`` and the steal-matrix row
    is ``steals_ok`` / ``nodes_stolen``.  tree-split moves work in
    rebalance rounds, not steals: its rounds carry the same totals."""
    result, sink = traced_cell(variant, idle, spec)
    events = sink.events()
    occ = state_occupancy(events, SMALL_THREADS, result.sim_time)
    assert occ == {s.rank: s.timer.times for s in result.per_thread}
    steals, nodes = steal_matrix(events, SMALL_THREADS)
    if variant == "tree-split":
        rounds = [ev.args for ev in events if ev.kind == "tsplit.rebalance"]
        assert rounds
        assert sum(r["moves"] for r in rounds) == result.stats.steals_ok
        assert sum(r["nodes"] for r in rounds) == result.stats.nodes_stolen
        return
    assert [sum(row) for row in steals] \
        == [s.steals_ok for s in result.per_thread]
    assert [sum(row) for row in nodes] \
        == [s.nodes_stolen for s in result.per_thread]
    assert result.stats.steals_ok > 0


def test_service_latencies_in_the_trace_are_exact():
    """A traced stream's ``task.done`` latencies are the run's own
    floats: the percentiles of the trace are the result's, bit for
    bit (not six significant digits of them)."""
    sink = TraceSink()
    result = run_service(ServiceConfig(n_tasks=60), threads=8, tracer=sink)
    lats = sorted(service_summary(sink.events())["latencies"])
    assert len(lats) == result.completed
    assert [percentile(lats, 50.0), percentile(lats, 95.0),
            percentile(lats, 99.0), lats[-1]] \
        == [result.lat_p50, result.lat_p95, result.lat_p99, result.lat_max]
