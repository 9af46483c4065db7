"""Open-system service runs: conservation, determinism, backpressure.

The determinism tests mirror the repo-wide discipline: same seed =>
bit-identical results across event-queue backends and across
serial/parallel execution of a sweep.
"""

from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import pytest

import repro.fastpath as fp
from repro.check import InvariantMonitor, check_service_run
from repro.errors import ConfigError, ProtocolError
from repro.faults.plan import parse_fault_spec
from repro.net.presets import get_preset
from repro.obs import TraceSink
from repro.service import ArrivalProcess, ServiceConfig, run_service
from repro.service import tasks
from repro.service.runtime import (RETRY_BACKOFF, RETRY_JITTER,
                                   ServiceRuntime)
from repro.service.tasks import ServiceWorkload, TaskForest
from repro.sim.rng import StreamRng, substream_seed
from repro.uts import Tree, materialized
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
        slow = replace(BASE, policy="block", deadline=60e-6, task_gran=20,
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
        # non-finite: a NaN deadline silently turned deadlines off
        ("deadline", float("nan")),
        ("deadline", float("inf")),
    ])
    def test_config_rejects_garbage_by_name(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ServiceConfig(**{field: value})

    def test_retry_constants_keep_the_ranges_their_fields_were_checked_for(self):
        # A NaN or zero backoff failed mid-run as a bad timeout.
        assert 0.0 < RETRY_BACKOFF < float("inf")
        assert 0.0 <= RETRY_JITTER <= 1.0

    @pytest.mark.parametrize("task_q", [0.5, 0.75])
    def test_a_supercritical_task_shape_is_refused(self, task_q):
        with pytest.raises(ConfigError, match="supercritical"):
            ServiceConfig(task_q=task_q).inner_params()

    def test_cli_refuses_a_nan_deadline(self, capsys):
        from repro.harness.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--deadline", "nan"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "deadline" in err


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


# -- the task forest: the implicit walk, one task per stack, no walk after ------

THREADS = 8
STORM = "storm(kill:2@t=0.05ms..0.2ms)"


class Spy(TraceSink):
    """A sink that keeps the algorithm instance."""

    def attach_algorithm(self, algo):
        self.algo = algo


def stream(load, policy, engine):
    base = ServiceConfig(task_engine=engine)
    capacity = THREADS / (base.expected_task_nodes()
                          * get_preset("kittyhawk").node_visit_time)
    return ServiceConfig(arrivals=ArrivalProcess(rate=load * capacity),
                         n_tasks=100, queue_capacity=8, policy=policy,
                         deadline=150e-6, task_engine=engine, seed=3)


@pytest.mark.parametrize("engine", ["splitmix", "sha1"])
def test_forest_is_the_implicit_walk_by_either_builder(engine, monkeypatch):
    """Task by task the layout is the sequential search from the task's
    root (minted from the stream seed), and the default build (the
    compiled kernel where the extension loads) equals the scalar build
    array for array."""
    params = ServiceConfig(task_engine=engine).inner_params()
    monkeypatch.delenv("REPRO_FASTPATH", raising=False)
    default = TaskForest(params, 3, 60)
    monkeypatch.setenv("REPRO_FASTPATH", "0")
    scalar = TaskForest(params, 3, 60)
    for name in ("delta", "size", "off", "task_of"):
        assert getattr(default, name) == getattr(scalar, name), name
    assert (default.n_nodes, default.n_leaves, default.max_depth) == (
        scalar.n_nodes, scalar.n_leaves, scalar.max_depth)

    inner = Tree(params)
    assert default.delta[0] == -1 and default.size[0] == 1
    assert default.task_of[0] == -1 and default.off[0] == 1
    for tid in range(60):
        lo, hi = default.off[tid], default.off[tid + 1]
        root = inner.engine.init(
            substream_seed(3, "svc.task", tid) & 0x7FFFFFFFFFFFFFFF)
        stack, delta = [(root, 0)], []
        while stack:
            children = inner.children(stack.pop())
            delta.append(len(children) - 1)
            stack.extend(children)
        assert list(default.delta[lo:hi]) == delta
        assert default.size[lo] == hi - lo
        assert set(default.task_of[lo:hi]) == {tid}
    assert default.off[60] == default.n_nodes


@pytest.mark.parametrize("backend", ["pure", "fast"])
def test_two_tasks_on_one_stack_fail_loudly(backend, monkeypatch):
    if backend == "fast" and not fp.available():
        pytest.skip("compiled core not built on this host")
    monkeypatch.delenv("REPRO_FASTPATH", raising=False)
    take = ServiceRuntime.take

    def take_two(self, rank):
        task = take(self, rank)
        if task is not None and task.tid == 0:
            # task 1's root under task 0's: one batch could visit both
            # and book them all to one task
            self.algo.stacks[rank].push(self.workload.task_root(1))
        return task

    monkeypatch.setattr(ServiceRuntime, "take", take_two)
    with pytest.raises(ProtocolError, match="tasks 0 and 1"):
        run_service(stream(0.6, "block", "splitmix"), threads=THREADS,
                    config=WsConfig(chunk_size=2), seed=1, fastpath=backend)


def test_storm_cell_lost_work_is_read_off_size():
    """``lost_work`` is ``size[pos]`` summed over the lost descriptors:
    no walk, so no ``children()`` call after the run ends."""
    spy = Spy(enabled=False)
    calls = []
    real = ServiceWorkload.children
    try:
        ServiceWorkload.children = lambda self, node: (
            calls.append(node) or real(self, node))
        r = run_service(stream(0.6, "shed-oldest", "splitmix"),
                        threads=THREADS, config=WsConfig(chunk_size=2),
                        seed=1, faults=parse_fault_spec(STORM, seed=7),
                        tracer=spy)
    finally:
        ServiceWorkload.children = real
    assert r.lost_tasks > 0 and r.lost_work > 0 and not calls
    rt = spy.algo.faults_rt
    size = spy.algo.tree.size
    assert r.lost_work == sum(size[p] for p in rt.lost_descriptors)


def test_a_wrapper_around_the_workload_cannot_route_around_the_scan():
    """``bench/drive.py``'s probe pass hands the pool a timing wrapper
    with only ``root()`` / ``children()`` and the runtime the workload
    itself: drains are booked in the workload's scan, so the pool must
    visit through it -- same schedule, ``children()`` never asked."""
    from repro.pgas.machine import Machine
    from repro.service.algorithm import ServiceAlgorithm

    class Wrapper:
        def __init__(self, inner):
            self.inner, self.params, self.calls = inner, inner.params, 0

        def root(self):
            return self.inner.root()

        def children(self, node):
            self.calls += 1
            return self.inner.children(node)

    service = stream(0.6, "shed-oldest", "splitmix")
    cfg = WsConfig(chunk_size=2, idle_strategy="park")
    plain = run_service(service, threads=THREADS, config=cfg, seed=1)

    workload = ServiceWorkload(service.inner_params(), seed=service.seed)
    wrapper = Wrapper(workload)
    machine = Machine(threads=THREADS, net=get_preset("kittyhawk"), seed=1,
                      tracer=Spy(enabled=True))
    algo = ServiceAlgorithm(machine, wrapper, cfg)
    svc = ServiceRuntime(service, machine, algo, workload)
    machine.spawn_all(algo.thread_main)
    svc.start()
    sim_time = machine.run()
    algo.finalize()
    svc.assert_conservation()
    assert (svc.completed, algo.total_nodes, machine.sim.events_processed,
            repr(sim_time)) == (plain.completed, plain.total_nodes,
                                plain.engine_events, repr(plain.sim_time))
    assert svc.completed > 0 and wrapper.calls == 0
