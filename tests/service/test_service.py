"""Open-system service runs: conservation, determinism, backpressure.

The determinism tests mirror the repo-wide discipline: same seed =>
bit-identical results across event-queue backends and across
serial/parallel execution of a sweep.
"""

from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import pytest

from repro.check import InvariantMonitor, check_service_run
from repro.errors import ConfigError
from repro.faults.plan import parse_fault_spec
from repro.obs import TraceSink
from repro.service import ArrivalProcess, ServiceConfig, run_service
from repro.service import tasks
from repro.sim.rng import StreamRng
from repro.uts import materialized
from repro.ws.config import WsConfig

BASE = ServiceConfig(arrivals=ArrivalProcess(rate=8e5), n_tasks=120,
                     queue_capacity=16, policy="shed-oldest",
                     deadline=150e-6, max_retries=2, seed=3)


def _run(service=BASE, *, idle="park", threads=8, faults=None, **kw):
    cfg = WsConfig(chunk_size=2, idle_strategy=idle)
    return run_service(service, threads=threads, config=cfg, seed=1,
                       faults=faults, **kw)


def _sweep_cell(policy):
    """Module-level worker: one sweep cell (picklable for --jobs)."""
    res = _run(replace(BASE, policy=policy))
    return res.as_dict()


class TestConservation:
    @pytest.mark.parametrize("policy",
                             ["block", "shed-oldest", "shed-newest"])
    @pytest.mark.parametrize("idle", ["poll", "park"])
    def test_exact_task_accounting(self, policy, idle):
        res = _run(replace(BASE, policy=policy), idle=idle)
        assert res.admitted == 120
        assert res.admitted == res.completed + res.shed_total + res.lost_tasks
        assert res.lost_tasks == 0

    def test_block_policy_never_sheds(self):
        res = _run(replace(BASE, policy="block", deadline=0.0))
        assert res.shed_total == 0
        assert res.completed == res.admitted
        assert res.block_waits > 0  # overload did push back on arrivals

    def test_shed_policies_shed_under_overload(self):
        oldest = _run(replace(BASE, deadline=0.0, policy="shed-oldest",
                              arrivals=ArrivalProcess(rate=3e6)))
        newest = _run(replace(BASE, deadline=0.0, policy="shed-newest",
                              arrivals=ArrivalProcess(rate=3e6)))
        assert oldest.shed["oldest"] > 0 and oldest.shed["newest"] == 0
        assert newest.shed["newest"] > 0 and newest.shed["oldest"] == 0
        # Bounded queue held: depth never exceeded the capacity.
        assert oldest.queue_peak <= BASE.queue_capacity
        assert newest.queue_peak <= BASE.queue_capacity

    def test_deadline_retries_then_deadline_shed(self):
        slow = replace(BASE, policy="block", deadline=60e-6,
                       retry_backoff=100e-6, task_gran=20,
                       queue_capacity=64, arrivals=ArrivalProcess(rate=4e5))
        res = _run(slow, threads=4)
        assert res.retries > 0
        assert res.shed["deadline"] > 0
        assert res.admitted == res.completed + res.shed_total


class TestDeterminism:
    def test_heap_vs_bucket_identical(self):
        a = _run(queue="heap")
        b = _run(queue="bucket")
        assert a.as_dict() == b.as_dict()

    def test_traced_equals_untraced(self):
        a = _run()
        b = _run(tracer=TraceSink())
        assert a.as_dict() == b.as_dict()

    def test_repeat_run_identical(self):
        assert _run().as_dict() == _run().as_dict()

    def test_serial_vs_parallel_sweep_identical(self):
        policies = ["block", "shed-oldest", "shed-newest"]
        serial = [_sweep_cell(p) for p in policies]
        with ProcessPoolExecutor(max_workers=3) as pool:
            parallel = list(pool.map(_sweep_cell, policies))
        assert serial == parallel

    def test_sim_arrival_times_match_substream(self):
        """The dispatcher's task.arrive instants are exactly the
        offline substream prefix sums -- the sim adds no skew."""
        sink = TraceSink()
        _run(replace(BASE, policy="block", deadline=0.0,
                     arrivals=ArrivalProcess(rate=2e5)), tracer=sink)
        arrive = [e.time for e in sink.events() if e.kind == "task.arrive"]
        gaps = ArrivalProcess(rate=2e5).gaps(StreamRng(3, "svc", "arrival"))
        t, expected = 0.0, []
        for _ in range(len(arrive)):
            t += next(gaps)
            expected.append(t)
        assert arrive == pytest.approx(expected, abs=0.0)


class TestFaultStorms:
    STORM = "storm(kill:3@t=0.05ms..0.2ms)"

    @pytest.mark.parametrize("idle", ["poll", "park"])
    def test_storm_run_conserves_tasks(self, idle):
        plan = replace(parse_fault_spec(self.STORM), seed=7)
        res = _run(faults=plan, idle=idle)
        assert res.fault_counters.threads_killed == 3
        assert res.admitted == res.completed + res.shed_total + res.lost_tasks
        # Bounded degradation: the storm must not collapse the stream.
        assert res.completed >= res.admitted // 2

    def test_storm_deterministic_across_backends(self):
        plan = replace(parse_fault_spec(self.STORM), seed=7)
        a = _run(faults=plan, queue="heap")
        b = _run(faults=plan, queue="bucket")
        assert a.as_dict() == b.as_dict()

    def test_monitored_storm_cell_clean(self):
        out = check_service_run(fault_spec=self.STORM, fault_seed=7)
        assert out.ok, out.error
        assert out.monitor["terminations_seen"] == 1

    def test_monitor_passes_all_invariants_live(self):
        mon = InvariantMonitor()
        plan = replace(parse_fault_spec(self.STORM), seed=7)
        res = _run(faults=plan, tracer=mon)
        mon.final_check()
        assert mon.checks > 1000
        assert res.admitted == res.completed + res.shed_total + res.lost_tasks


class TestSurface:
    def test_service_algorithm_not_in_batch_registry(self):
        import repro
        assert "service-ws" not in repro.ALGORITHMS

    def test_cli_serve_smoke(self, capsys):
        from repro.harness.cli import main
        rc = main(["serve", "--tasks", "60", "--threads", "8",
                   "--arrivals", "poisson:rate=2e5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "service T=8" in out and "goodput" in out

    def test_report_has_service_section(self, tmp_path):
        sink = TraceSink()
        _run(tracer=sink)
        from repro.obs import render_trace_report
        report = render_trace_report(sink.events(), meta=sink.meta)
        assert "## Service (open-system stream)" in report
        assert "task latency" in report

    @pytest.mark.parametrize("field, value", [
        ("n_tasks", -1),
        ("queue_capacity", 0),
        ("policy", "shed-random"),
        ("deadline", -1e-6),
        ("max_retries", -1),
        ("retry_backoff", 0.0),
        ("retry_jitter", 1.5),
    ])
    def test_config_rejects_garbage_by_name(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ServiceConfig(**{field: value})


@pytest.fixture
def fresh_cache(monkeypatch):
    monkeypatch.setattr(materialized, "_TREES", OrderedDict())
    return materialized._TREES


class TestTaskForest:
    """The stream's one expansion: cached by (shape, stream seed,
    tasks) in the tree cache, always built, refused by name when it
    cannot be laid out."""

    def test_runs_of_one_stream_share_one_forest(self, fresh_cache):
        a = _run()
        [(key, forest)] = fresh_cache.items()
        assert key == (BASE.inner_params(), BASE.seed, BASE.n_tasks)
        assert forest.n_nodes == sum(
            forest.size[forest.off[t]] for t in range(BASE.n_tasks)) + 1
        b = _run(replace(BASE, policy="block"))
        assert list(fresh_cache.values()) == [forest]
        _run(replace(BASE, n_tasks=60))
        _run(replace(BASE, seed=4))
        assert len(fresh_cache) == 3
        assert a.as_dict() == _run().as_dict() != b.as_dict()

    def test_cache_cap_zero_still_runs_uncached(self, monkeypatch,
                                                fresh_cache):
        cached = _run()
        fresh_cache.clear()
        monkeypatch.setenv("REPRO_TREE_CACHE_CAP", "0")
        assert _run().as_dict() == cached.as_dict()
        assert not fresh_cache

    def test_forest_over_the_cap_leaves_cached_trees_alone(
            self, monkeypatch, fresh_cache):
        monkeypatch.setenv("REPRO_TREE_CACHE_CAP", "300")
        tree = materialized.tree_for(BASE.inner_params().with_seed(9))
        assert list(fresh_cache.values()) == [tree]
        _run()  # 120 tasks of ~41 nodes: over the cap on its own
        assert list(fresh_cache.values()) == [tree]

    @pytest.mark.parametrize("limit", [1000, 4300],
                             ids=["by-estimate", "by-expansion"])
    @pytest.mark.parametrize("builder", ["default", "scalar"])
    def test_oversized_forest_is_refused_by_name(self, monkeypatch,
                                                 fresh_cache, limit,
                                                 builder):
        """100 tasks: 4,100 nodes estimated, 4,429 in fact."""
        if builder == "scalar":
            monkeypatch.setenv("REPRO_FASTPATH", "0")
        monkeypatch.setattr(tasks, "_MAX_NODES", limit)
        with pytest.raises(ConfigError,
                           match=rf"n_tasks=100 .* 4\.1e\+03 nodes.* {limit}"):
            _run(replace(BASE, n_tasks=100))
        assert not fresh_cache

    def test_cli_refuses_an_oversized_stream(self, capsys):
        from repro.harness.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--tasks", "100000000", "--task-q", "0.499"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "n_tasks=100000000" in err and "2e+11 nodes" in err
