"""A stream on the task forest executes the implicit expansion's schedule.

ISSUE 22 replaced ``ServiceWorkload``'s per-node expansion -- every node
of every task re-derived per run through ``Tree.children``, wrapped in a
``(tid, (state, height))`` tuple pair and booked inside ``children()``
-- with one cached forest on the materialised layout: a node is a forest
position, a visit batch is the batch trees' range scan, the drain ledger
is booked per batch, and the compiled ``WorkPhase`` takes the same
booking as one more switch.  Every pinned service schedule depends on a
drain being detected at the same instant and in the same order, so the
parent commit's workload lives on below *verbatim* (with the
``_LossSizer`` its ``lost_work`` went through) and is swapped in for
whole runs.  The default run and the reference run must agree on the
identity line, ``repr(sim_time)``, every per-thread counter, the
latencies, the queue-depth timeline, the per-task node counts, the
fault ledgers with ``lost_work``, and the full record stream of a
traced run -- across loads, admission policies, idle strategies, kill
storms, RNG engines and both backends.

The last tests prove the cells are not vacuous (tasks drained, shed and
lost; batches cut by the release threshold mid-task; the fast legs
really ran the compiled Working state) and that the one assumption the
per-batch booking rests on -- a stack holds one task at a time -- is
checked, not trusted.
"""

import dataclasses
from collections import defaultdict
from typing import List, Tuple

import pytest

import repro.fastpath as fp
import repro.service.driver as driver
from repro.errors import ProtocolError
from repro.faults.plan import parse_fault_spec
from repro.faults.runtime import FaultRuntime
from repro.net.presets import get_preset
from repro.obs import TraceSink
from repro.service import ArrivalProcess, ServiceConfig, run_service
from repro.service.runtime import ServiceRuntime
from repro.service.tasks import ServiceWorkload, TaskForest
from repro.sim.rng import substream_seed
from repro.uts.params import TreeParams
from repro.uts.tree import Tree
from repro.ws.config import WsConfig

# -- the parent commit's workload, verbatim --------------------------------------

_BOOTSTRAP = (-1, (-1, -1))


class ReferenceWorkload:
    """Task-aware search space over one inner tree shape."""

    def __init__(self, inner_params: TreeParams, seed: int = 0) -> None:
        self.inner = Tree(inner_params)
        #: AlgorithmBase reads ``params.compute_granularity`` for the
        #: per-node visit time; expose the inner shape's directly.
        self.params = inner_params
        self._seed = seed
        #: task id -> unvisited descriptors currently in the system.
        self.outstanding: dict = {}
        #: task id -> nodes visited (exact per-task work).
        self.task_nodes: dict = {}
        #: Injected by ServiceRuntime (drain + taint callbacks).
        self.runtime = None

    def describe(self) -> str:
        return f"service-tasks({self.inner.params.describe()})"

    # -- search-space protocol ----------------------------------------------

    def root(self) -> Tuple:
        return _BOOTSTRAP

    def task_root(self, tid: int) -> Tuple:
        """Mint task ``tid``'s root node (height 0: ``b0`` children)."""
        state = self.inner.engine.init(
            substream_seed(self._seed, "svc.task", tid) & 0x7FFFFFFFFFFFFFFF)
        return (tid, (state, 0))

    def children(self, node: Tuple) -> List[Tuple]:
        """Children of a workload node, with drain accounting.

        Runs inside the visiting worker's batch (no yield between the
        expansion and the bookkeeping), so the outstanding counter is
        exact at every simulation instant.
        """
        tid = node[0]
        if tid < 0:
            return []
        kids = self.inner.children(node[1])
        self.task_nodes[tid] = self.task_nodes.get(tid, 0) + 1
        left = self.outstanding[tid] + len(kids) - 1
        if left:
            self.outstanding[tid] = left
            return [(tid, kid) for kid in kids]
        del self.outstanding[tid]
        self.runtime.on_task_drained(tid)
        return []

    # -- fault hook ----------------------------------------------------------

    def on_nodes_lost(self, nodes: List[Tuple]) -> None:
        """Fail-stop losses: taint the tasks, keep the drain exact.

        A lost descriptor was never visited, so its whole subtree is
        gone; the task can never complete and is accounted ``lost``
        when its surviving descriptors drain.
        """
        runtime = self.runtime
        out = self.outstanding
        for node in nodes:
            tid = node[0]
            if tid < 0:
                continue
            runtime.taint(tid)
            left = out[tid] - 1
            if left:
                out[tid] = left
            else:
                del out[tid]
                runtime.on_task_drained(tid)


class _LossSizer:
    """Side-effect-free ``children`` view for ``lost_work_total``.

    The workload's own ``children`` *accounts* (it drives the drain
    ledger); sizing lost subtrees after the run must not re-enter that
    bookkeeping, so the sizer expands the inner tree directly.
    """

    def __init__(self, workload: ReferenceWorkload) -> None:
        self._inner = workload.inner

    def children(self, node):
        tid, inner_node = node
        if tid < 0:
            return []
        return [(tid, kid) for kid in self._inner.children(inner_node)]


# -- harness ---------------------------------------------------------------------

#: How often the reference expansion ran (anti-vacuity for the swap).
REFERENCE_USE = {"children": 0, "sized": 0}
#: What the default legs exercised, summed over the matrix.
SEEN = defaultdict(int)


class Swapped(ReferenceWorkload):
    """The reference behind the seams the runtime now talks through:
    ``attach`` (the forest needs the stream's length, the reference did
    not), no scan of its own (``explore_batch`` falls back to its
    ``children()`` loop, where the reference books), and a count of 0
    for a task whose root was lost unvisited (``.get(tid, 0)`` then)."""

    batch_expand = None

    def attach(self, runtime, n_tasks):
        self.runtime = runtime
        self.task_nodes = defaultdict(int, self.task_nodes)

    def children(self, node):
        REFERENCE_USE["children"] += 1
        return super().children(node)


@pytest.fixture
def reference_workload(monkeypatch):
    """Give ``run_service`` its parent-commit workload back."""
    monkeypatch.setattr(driver, "ServiceWorkload", Swapped)
    walk = FaultRuntime.lost_work_total

    def sized(self, workload):
        REFERENCE_USE["sized"] += 1
        return walk(self, _LossSizer(workload))

    monkeypatch.setattr(FaultRuntime, "lost_work_total", sized)
    return REFERENCE_USE


class Spy(TraceSink):
    """A sink that keeps the algorithm instance (and through it the
    runtime and the workload)."""

    def attach_algorithm(self, algo):
        self.algo = algo


THREADS = 8
STORM = "storm(kill:2@t=0.05ms..0.2ms)"


def stream(load, policy, engine):
    base = ServiceConfig(task_engine=engine)
    capacity = THREADS / (base.expected_task_nodes()
                          * get_preset("kittyhawk").node_visit_time)
    return ServiceConfig(arrivals=ArrivalProcess(rate=load * capacity),
                         n_tasks=100, queue_capacity=8, policy=policy,
                         deadline=150e-6, task_engine=engine, seed=3)


def task_nodes(workload):
    """``{task: nodes visited}``, zeros dropped: a dict then, a table
    of every task now."""
    table = workload.task_nodes
    pairs = table.items() if isinstance(table, dict) else enumerate(table)
    return {tid: n for tid, n in pairs if n}


def run(load, policy, idle, storm, backend, engine, traced):
    spy = Spy(enabled=traced)
    faults = parse_fault_spec(STORM, seed=7) if storm else None
    r = run_service(stream(load, policy, engine), threads=THREADS,
                    config=WsConfig(chunk_size=2, idle_strategy=idle),
                    seed=1, faults=faults, tracer=spy, fastpath=backend)
    algo = spy.algo
    svc = algo.service
    snapshot = (
        (r.n_threads, r.policy, r.admitted, r.completed, r.shed_total,
         r.lost_tasks, r.retries, r.total_nodes, r.engine_events),
        repr(r.sim_time),
        [dataclasses.asdict(st) | {"timer": st.timer.times}
         for st in r.per_thread],
        svc.latencies,
        svc.depth_timeline,
        task_nodes(svc.workload),
        (r.lost_work, r.fault_counters),
        spy.records,
    )
    return snapshot, algo, r


CELLS = [(load, policy, idle, storm, backend, engine)
         for load in (0.6, 1.5)
         for policy in ("shed-oldest", "shed-newest", "block")
         for idle in ("poll", "park")
         for storm in (False, True)
         for backend in ("pure", "fast")
         for engine in ("splitmix", "sha1")
         # sha1 changes the forest, not the protocol: one policy's worth
         if engine == "splitmix" or policy == "shed-oldest"]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize(
    "load, policy, idle, storm, backend, engine", CELLS,
    ids=[f"load{load}-{policy}-{idle}-{'storm' if storm else 'clean'}"
         f"-{backend}-{engine}"
         for load, policy, idle, storm, backend, engine in CELLS])
def test_forest_executes_the_implicit_expansions_schedule(
        load, policy, idle, storm, backend, engine, traced, monkeypatch,
        request):
    if backend == "fast" and not fp.available():
        pytest.skip("compiled core not built on this host")
    # a forced REPRO_FASTPATH=0 would make both legs the pure backend
    monkeypatch.delenv("REPRO_FASTPATH", raising=False)
    cell = (load, policy, idle, storm, backend, engine, traced)
    forest, algo, r = run(*cell)
    assert isinstance(algo.tree, ServiceWorkload)
    assert bool(forest[-1]) == traced
    fused = backend == "fast" and not storm and not traced
    assert bool(algo._fuse) == fused
    SEEN["drained"] += r.completed + r.lost_tasks
    SEEN["shed"] += r.shed_total
    SEEN["lost"] += r.lost_tasks
    SEEN["lost_work"] += r.lost_work
    SEEN["releases"] += sum(st.releases for st in r.per_thread)
    if fused:
        SEEN["fused_drains"] += r.completed
        SEEN["work_phases"] += sum(
            type(ph).__name__ == "WorkPhase"
            for ph in algo._c_phases.values())
    use = request.getfixturevalue("reference_workload")
    before = dict(use)
    reference, ref_algo, _ = run(*cell)
    assert isinstance(ref_algo.tree, Swapped)
    assert use["children"] > before["children"]
    assert (use["sized"] > before["sized"]) == storm
    assert reference == forest


def test_the_cells_are_not_vacuous():
    """Read after the matrix (same module, definition order)."""
    if not SEEN:
        pytest.skip("the matrix was deselected")
    assert SEEN["drained"] > 1000
    assert SEEN["shed"] > 0
    assert SEEN["lost"] > 0 and SEEN["lost_work"] > SEEN["lost"]
    # a release follows a batch the threshold cut short mid-task
    assert SEEN["releases"] > 0
    if fp.available():
        assert SEEN["fused_drains"] > 0 and SEEN["work_phases"] > 0


# -- the forest itself -----------------------------------------------------------

@pytest.mark.parametrize("engine", ["splitmix", "sha1", "sha1-pure"])
def test_forest_is_the_reference_walk_by_either_builder(engine, monkeypatch):
    """Task by task the layout is the sequential search from the
    reference's task root, and the default build (splitmix, sha1: the
    compiled kernel where the extension loads; sha1-pure: none, so the
    scalar loop twice) equals the scalar build array for array."""
    params = ServiceConfig(task_engine=engine).inner_params()
    monkeypatch.delenv("REPRO_FASTPATH", raising=False)
    default = TaskForest(params, 3, 60)
    monkeypatch.setenv("REPRO_FASTPATH", "0")
    scalar = TaskForest(params, 3, 60)
    for name in ("delta", "size", "off", "task_of"):
        assert getattr(default, name) == getattr(scalar, name), name
    assert (default.n_nodes, default.n_leaves, default.max_depth) == (
        scalar.n_nodes, scalar.n_leaves, scalar.max_depth)

    ref = ReferenceWorkload(params, seed=3)
    inner = ref.inner
    assert default.delta[0] == -1 and default.size[0] == 1
    assert default.task_of[0] == -1 and default.off[0] == 1
    for tid in range(60):
        lo, hi = default.off[tid], default.off[tid + 1]
        stack, delta = [ref.task_root(tid)[1]], []
        while stack:
            children = inner.children(stack.pop())
            delta.append(len(children) - 1)
            stack.extend(children)
        assert list(default.delta[lo:hi]) == delta
        assert default.size[lo] == hi - lo
        assert set(default.task_of[lo:hi]) == {tid}
    assert default.off[60] == default.n_nodes


# -- one task per stack: checked, not trusted ------------------------------------

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
