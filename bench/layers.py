"""Per-layer microbenchmarks: one small kernel per layer boundary.

Each kernel calls one layer of ``src/repro`` through its public
functions, from outside, and reports a rate or a ratio with its base.
They are the same in every workload's traced run (they do not depend
on the workload), sized to a few tenths of a second each, and repeated
``REPS`` times with the median reported.  What each one should move
end to end is tabulated in ``bench/README.md``.
"""

from __future__ import annotations

import heapq
import itertools
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator

from repro import fastpath
from repro.check import InvariantMonitor, RandomTieBreak, check_run
from repro.faults.plan import FaultPlan
from repro.harness.config import FIG4, T1_QUICK, T1_TEST
from repro.harness.parallel import expected_nodes_for, shared_tree
from repro.harness.runner import run_experiment, tree_for
from repro.harness.sweep import run_sweep
from repro.msg.comm import MsgWorld
from repro.net.presets import KITTYHAWK, NUMA_8X
from repro.obs import TraceSink
from repro.pgas.machine import Machine
from repro.service import ArrivalProcess, run_service
from repro.sim.engine import Simulator, Timeout
from repro.sim.equeue import BucketQueue
from repro.sim.resources import FifoLock
from repro.sim.rng import StreamRng
from repro.uts.materialized import materialize
from repro.uts.params import TreeParams
from repro.uts.sequential import count_tree
from repro.ws.algorithms import get_algorithm
from repro.ws.config import WsConfig

from ledger import exact, sample
from workloads import FUZZ_BASE, service_cell

REPS = 3
FIG4_VARIANTS = tuple(FIG4["quick"].algorithms)
#: The cell the overhead ratios are taken on: fig4's ``upc-distmem``
#: at k=8, 16 threads, on the pure backend (tracers and fault plans
#: force the pure loops anyway, so the base must be pure too).
RATIO_CELL = dict(algorithm="upc-distmem", threads=16, preset="kittyhawk",
                  chunk_size=8)


@contextmanager
def backend(mode: str) -> Iterator[None]:
    """Force ``REPRO_FASTPATH`` (it overrides every per-call request)."""
    saved = os.environ.get("REPRO_FASTPATH")
    os.environ["REPRO_FASTPATH"] = mode
    try:
        yield
    finally:
        if saved is None:
            del os.environ["REPRO_FASTPATH"]
        else:
            os.environ["REPRO_FASTPATH"] = saved


def _timed(fn: Callable[[], float]) -> list:
    """``REPS`` samples of ``work / seconds`` where ``fn`` returns work."""
    rates = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        work = fn()
        rates.append(work / (time.perf_counter() - t0))
    return rates


def _seconds(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# -- uts ---------------------------------------------------------------------

def uts_layer(out: Dict[str, dict]) -> None:
    for engine in ("sha1", "splitmix"):
        params = TreeParams.binomial(b0=100, m=2, q=0.49, seed=0,
                                     engine=engine)
        out[f"uts.{engine}_nodes_per_s"] = sample(
            _timed(lambda: count_tree(params).n_nodes), "nodes/s",
            "count_tree, implicit 2.1k-node tree")
    t0 = time.perf_counter()
    tree = materialize(T1_QUICK)
    out["uts.materialize_nodes_per_s"] = exact(
        tree.n_nodes / (time.perf_counter() - t0), "nodes/s",
        "materialize(T1_QUICK), this workload's backend")

    def dfs(expand) -> int:
        local, visited = [tree.root()], 0
        while local:
            visited += expand(local, 1 << 30, 1 << 30)[0]
        return visited

    out["uts.batch_expand_nodes_per_s"] = sample(
        _timed(lambda: dfs(tree.batch_expand)), "nodes/s", "full DFS, Python")
    compiled = fastpath.batch_expander(tree)
    out["uts.batch_expand_nodes_per_s_fast"] = (
        sample(_timed(lambda: dfs(compiled)), "nodes/s", "full DFS, C")
        if compiled is not None else _no_extension("nodes/s"))


def _no_extension(unit: str) -> dict:
    return exact(0.0, unit, "extension unavailable")


# -- sim ---------------------------------------------------------------------

def _null_kernel(n_procs: int, per_proc: int, **sim_kw) -> Callable[[], int]:
    """The null protocol: generator processes that only yield
    ``Timeout`` -- queue push/pop plus generator resume, nothing else."""
    def body(i: int):
        delay = 1e-6 * (1 + i % 97)
        for _ in range(per_proc):
            yield Timeout(delay)

    def run() -> int:
        sim = Simulator(**sim_kw)
        sim.run_all(body(i) for i in range(n_procs))
        return sim.events_processed

    return run


def sim_layer(out: Dict[str, dict]) -> None:
    note = "null protocol: processes yielding Timeout"
    with backend("pure"):
        out["sim.heap_events_per_s"] = sample(
            _timed(_null_kernel(16, 6000)), "events/s",
            note + ", 16 processes")
        out["sim.bucket_events_per_s"] = sample(
            _timed(_null_kernel(1024, 100, queue="bucket")), "events/s",
            note + ", 1024 processes, queue=bucket")
        out["sim.policy_events_per_s"] = sample(
            _timed(_null_kernel(16, 3000, tie_break=RandomTieBreak(0))),
            "events/s", note + ", RandomTieBreak(0)")
    if fastpath.available():
        with backend("fast"):
            out["sim.heap_events_per_s_fast"] = sample(
                _timed(_null_kernel(16, 12000)), "events/s",
                note + ", C run()")
    else:
        out["sim.heap_events_per_s_fast"] = _no_extension("events/s")

    pending, churn = 4096, 40_000

    def queue_ops(push, pop) -> int:
        seq = itertools.count()
        for i in range(pending):
            push((i * 1e-6, next(seq)))
        for _ in range(churn):
            t, _key = pop()
            push((t + pending * 1e-6, next(seq)))
        return 2 * churn

    def bucket_ops() -> int:
        q = BucketQueue()
        return queue_ops(q.push, q.pop)

    def heap_ops() -> int:
        h: list = []
        return queue_ops(lambda item: heapq.heappush(h, item),
                         lambda: heapq.heappop(h))

    out["sim.equeue_ops_per_s"] = sample(
        _timed(bucket_ops), "ops/s", "BucketQueue push+pop at 4096 pending")
    out["sim.heapq_ops_per_s"] = sample(
        _timed(heap_ops), "ops/s", "heapq push+pop at 4096 pending")

    def lock_cycles() -> int:
        sim = Simulator(fastpath="pure")
        lock = FifoLock(sim)
        cycles = 4000

        def contender():
            for _ in range(cycles):
                yield lock.acquire()
                yield Timeout(1e-6)
                lock.release()

        sim.run_all(contender() for _ in range(4))
        return 4 * cycles

    with backend("pure"):
        out["sim.lock_cycles_per_s"] = sample(
            _timed(lock_cycles), "cycles/s", "FifoLock, four contenders")


# -- pgas / net / msg --------------------------------------------------------

def _build_machine(variant: str, threads: int, idle: str) -> None:
    machine = Machine(threads=threads, net=KITTYHAWK)
    algo = get_algorithm(variant)(
        machine, tree_for(T1_TEST),
        WsConfig(chunk_size=4, idle_strategy=idle))
    machine.spawn_all(algo.thread_main)


def pgas_layer(out: Dict[str, dict]) -> None:
    note = "Machine + upc-distmem construction + spawn_all"
    small = [_seconds(lambda: _build_machine("upc-distmem", 16, "poll"))
             / 16 * 1e6 for _ in range(20)]
    out["pgas.build_us_per_thread.16"] = sample(small, "us", note)
    out["pgas.build_us_per_thread.4096"] = exact(
        _seconds(lambda: _build_machine("upc-distmem", 4096, "park"))
        / 4096 * 1e6, "us", note + ", park")
    out["pgas.hier_build_us_per_thread.1024"] = exact(
        _seconds(lambda: _build_machine("upc-distmem-hier", 1024, "park"))
        / 1024 * 1e6, "us",
        "same with upc-distmem-hier; grows with threads (9 s at 4096)")

    calls = 30_000

    def cost_calls() -> int:
        for net in (KITTYHAWK, NUMA_8X):
            for i in range(calls):
                net.shared_ref(0, i & 15)
                net.lock_cost(0, i & 15)
                net.chunk_transfer(0, i & 15, 8)
        return 6 * calls

    out["net.cost_call_ns"] = sample(
        [1e9 / r for r in _timed(cost_calls)], "ns",
        "shared_ref / lock_cost / chunk_transfer, kittyhawk and numa-8x")

    def pingpong() -> int:
        machine = Machine(threads=2, net=KITTYHAWK, fastpath="pure")
        world = MsgWorld(machine)
        rounds = 3000

        def player(ctx):
            end = world.endpoint(ctx)
            peer = 1 - ctx.rank
            for _ in range(rounds):
                if ctx.rank == 0:
                    yield from end.send(peer, "ping")
                    yield from end.recv(("pong",))
                else:
                    yield from end.recv(("ping",))
                    yield from end.send(peer, "pong")

        machine.spawn_all(player)
        machine.run()
        return machine.sim.events_processed

    with backend("pure"):
        out["msg.pingpong_events_per_s"] = sample(
            _timed(pingpong), "events/s", "two MsgEndpoints, send/recv")


# -- ws / fastpath -----------------------------------------------------------

def ws_layer(out: Dict[str, dict]) -> None:
    """One fixed probe cell per fig4 variant (16 threads, k=8,
    ``T1_QUICK``) on each backend, and E11's two park cells."""
    tree = shared_tree(T1_QUICK)
    expected = expected_nodes_for(T1_QUICK)

    def cell(variant: str, mode: str, **kw):
        with backend(mode):
            r = run_experiment(variant, tree=tree, preset="kittyhawk", **kw)
        r.verify(expected)
        return r

    have_fast = fastpath.available()
    for variant in FIG4_VARIANTS:
        pure = cell(variant, "pure", threads=16, chunk_size=8)
        us_pure = pure.host_seconds / pure.engine_events * 1e6
        out[f"ws.{variant}.us_per_event"] = exact(
            us_pure, "us", "probe cell T=16 k=8, pure backend")
        out[f"ws.{variant}.events"] = exact(
            pure.engine_events, "count", "probe cell T=16 k=8 (exact)")
        if have_fast:
            fast = cell(variant, "fast", threads=16, chunk_size=8)
            out[f"fastpath.speedup.{variant}"] = exact(
                us_pure / (fast.host_seconds / fast.engine_events * 1e6),
                "ratio", "pure over fast us/event; base: pure")
        else:
            out[f"fastpath.speedup.{variant}"] = _no_extension("ratio")
    for threads in (1024, 4096):
        r = cell("upc-distmem", "auto", threads=threads,
                 config=WsConfig(chunk_size=4, idle_strategy="park"))
        out[f"ws.park_us_per_event.{threads}"] = exact(
            r.host_seconds / r.engine_events * 1e6, "us",
            "upc-distmem park k=4 on T1_QUICK")


# -- faults / obs / check ----------------------------------------------------

def overhead_layer(out: Dict[str, dict]) -> None:
    tree = shared_tree(T1_QUICK)

    def wall(**kw) -> float:
        return _seconds(lambda: run_experiment(tree=tree, **RATIO_CELL, **kw))

    def ratio(observed: Callable[[], float]) -> list:
        # Alternate base and observed so host-speed drift cancels.
        return [observed() / wall() for _ in range(REPS)]

    base_note = "; base: same cell plain, pure backend"
    with backend("pure"):
        wall()  # warm
        idle_plan = FaultPlan(seed=0)
        probe = run_experiment(tree=tree, faults=idle_plan, **RATIO_CELL)
        fired = {k: v for k, v in probe.fault_counters.nonzero().items()
                 if k != "invariant_checks"}
        if fired:
            raise AssertionError(f"idle fault plan fired: {fired}")
        out["faults.path_overhead_ratio"] = sample(
            ratio(lambda: wall(faults=idle_plan)), "ratio",
            "fig4 upc-distmem k=8 under a plan that fires nothing"
            + base_note)
        sink = TraceSink()
        traced = run_experiment(tree=tree, tracer=sink, **RATIO_CELL)
        out["obs.records_per_engine_event"] = exact(
            len(sink.records) / traced.engine_events, "ratio",
            "TraceSink records per engine event, same cell")
        out["obs.trace_overhead_ratio"] = sample(
            ratio(lambda: wall(tracer=TraceSink())), "ratio",
            "same cell with a TraceSink" + base_note)

        small = dict(tree=tree_for(TreeParams.binomial(
            b0=FUZZ_BASE["b0"], m=FUZZ_BASE["m"], q=FUZZ_BASE["q"],
            seed=FUZZ_BASE["tree_seed"])), algorithm="upc-distmem",
            threads=FUZZ_BASE["threads"], chunk_size=FUZZ_BASE["chunk_size"])

        def small_wall(**kw) -> float:
            return _seconds(lambda: run_experiment(**small, **kw))

        out["check.monitor_overhead_ratio"] = sample(
            [small_wall(tracer=InvariantMonitor()) / small_wall()
             for _ in range(3 * REPS)], "ratio",
            "fuzz base cell (3k nodes, 8 threads) under InvariantMonitor"
            "; base: same cell plain, pure backend")
        out["check.cells_per_s"] = sample(
            [1.0 / _seconds(lambda: check_run("upc-distmem", **FUZZ_BASE))
             for _ in range(3 * REPS)], "cells/s",
            "check_run on the fuzz base cell")


# -- service / harness -------------------------------------------------------

def service_layer(out: Dict[str, dict]) -> None:
    """Two probe streams of 1,000 tasks at 256 threads (loads 0.9 and
    1.5 of capacity), through ``run_service``."""
    runs = {}
    for load in (0.9, 1.5):
        spec = service_cell("probe", load, seed=0, n_tasks=1000).spec
        t0 = time.perf_counter()
        runs[load] = (run_service(**spec), time.perf_counter() - t0)
    steady, steady_wall = runs[0.9]
    out["service.tasks_per_host_s"] = exact(
        steady.completed / steady_wall, "tasks/s",
        "completed tasks per host second, load 0.9 probe")
    out["service.us_per_event"] = exact(
        steady.host_seconds / steady.engine_events * 1e6, "us",
        "load 0.9 probe")
    out["service.sim_lat_p99_us"] = exact(
        steady.lat_p99 * 1e6, "sim_us",
        "p99 task latency, load 0.9 probe (simulated, exact)")
    out["service.sim_shed_share"] = exact(
        runs[1.5][0].shed_fraction, "share",
        "shed fraction, load 1.5 probe (simulated, exact)")
    n_gaps = 50_000

    def gaps() -> int:
        stream = ArrivalProcess(rate=1e5).gaps(StreamRng(0, "bench"))
        for _ in itertools.islice(stream, n_gaps):
            pass
        return n_gaps

    out["service.arrival_gaps_per_s"] = sample(
        _timed(gaps), "gaps/s", "ArrivalProcess alone, poisson")


def harness_layer(out: Dict[str, dict]) -> None:
    """``run_sweep`` against the same cells called one by one."""
    setup = FIG4["test"]
    tree = shared_tree(setup.tree)
    expected = expected_nodes_for(setup.tree)

    def direct() -> None:
        for alg in setup.algorithms:
            for k in setup.chunk_sizes:
                run_experiment(alg, tree=tree, threads=setup.thread_counts[0],
                               preset=setup.preset,
                               chunk_size=k).verify(expected)

    direct()  # warm
    out["harness.sweep_overhead_s"] = sample(
        [_seconds(lambda: run_sweep(setup, jobs=1)) - _seconds(direct)
         for _ in range(REPS)], "s",
        "run_sweep(fig4[test], jobs=1) minus its 15 cells called directly")


def measure_layers() -> Dict[str, dict]:
    """Every workload-independent per-layer metric, by name."""
    out: Dict[str, dict] = {}
    uts_layer(out)
    sim_layer(out)
    pgas_layer(out)
    ws_layer(out)
    overhead_layer(out)
    service_layer(out)
    harness_layer(out)
    return out
