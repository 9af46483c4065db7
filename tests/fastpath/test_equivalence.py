"""Pure vs compiled backend: what the golden corpus cannot see.

The fastpath contract is not "about the same" -- it is *the same
schedule*.  Every corpus cell (``tests/golden``: Figure 4's tree per
variant, the park matrix, free references, service loads and the rest)
is replayed on both backends against one entry; these tests add what a
schedule does not show: which code ran (``WorkPhase`` binds, C-kernel
scans, scans ``abandon()`` cut short), tiny and heterogeneous machines,
the 1024-thread park pin, per-rank memory, and malformed input to the
compiled readers.

All tests are skipped when the extension is not built -- the pure
backend is then the only backend, and `test_selection.py` covers that
degradation.
"""

import gc
import sys
from array import array

import pytest

import repro.fastpath as fp
from repro.harness.config import T1_QUICK
from repro.harness.runner import run_experiment
from repro.obs import TraceSink
from repro.uts.materialized import materialize
from repro.uts.params import TreeParams
from repro.ws.config import WsConfig

pytestmark = pytest.mark.skipif(
    not fp.available(), reason="compiled core not built on this host")


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    """A forced REPRO_FASTPATH would make both legs the same backend."""
    monkeypatch.delenv("REPRO_FASTPATH", raising=False)


@pytest.fixture(scope="module")
def tree():
    # run_experiment does NOT materialize implicit trees itself; the
    # compiled working phases need the precomputed child map, so an
    # un-materialized tree would silently test pure-vs-pure.
    return materialize(T1_QUICK)


class AlgoSpy(TraceSink):
    """A disabled tracer (an enabled one is a fusion gate) that keeps
    the algorithm instance it was attached to -- and, set by the cell
    that ran it, the run's ``result``."""

    def __init__(self):
        super().__init__(enabled=False)

    def attach_algorithm(self, algo):
        self.algo = algo


def per_thread(result):
    return [
        (s.nodes_visited, s.probes, s.steal_attempts, s.steals_ok,
         s.chunks_stolen, s.nodes_stolen,
         s.requests_granted, s.requests_denied, s.releases,
         s.reacquires, s.msgs_sent, s.timer.transitions,
         tuple(sorted(s.timer.times.items())))
        for s in result.per_thread
    ]


def run_snapshot(algo, tree, backend, threads=16, spy=None, **kw):
    """Everything a run reports that is a function of the schedule
    (under park, the idle gate's lifetime counters too)."""
    spy = spy or AlgoSpy()
    r = spy.result = run_experiment(algo, tree, threads, seed=0,
                                    fastpath=backend, tracer=spy, **kw)
    gate = spy.algo._gate
    return (r.total_nodes, r.engine_events, repr(r.sim_time), r.lost_work,
            per_thread(r), gate and (gate.parks, gate.wakes, gate.deaths))


# -- the compiled claim: the Stealing state inside SearchPhase -------------

SMALL = TreeParams.binomial(b0=64, q=0.48, seed=1)


def claim_pair(variant, bounces, threads, tree=SMALL, **kw):
    """One lock-based cell on both backends: the schedule, every stack
    lock's counters, and no node left in flight -- and, on the
    compiled leg, not one steal attempt bounced back to Python."""
    legs = {}
    for backend in ("pure", "fast"):
        spy = AlgoSpy()
        snap = run_snapshot(variant, tree, backend, threads, spy=spy, **kw)
        assert spy.algo.in_flight_nodes == 0
        locks = [(lk.acquisitions, lk.contended_acquisitions,
                  repr(lk.busy_time)) for lk in spy.algo.stack_locks]
        legs[backend] = (snap, locks)
    assert legs["fast"] == legs["pure"]
    assert "claim" in spy.result.fusion.bound and bounces == []
    assert sum(p[3] for p in legs["fast"][0][4]) > 0  # steals landed
    return legs["fast"]


LOCK_BASED = ["upc-sharedmem", "upc-term", "upc-term-rapdif"]


@pytest.mark.parametrize("threads", [2, 16, 64])
@pytest.mark.parametrize("k", [1, 2, 8])
@pytest.mark.parametrize("variant", LOCK_BASED)
def test_compiled_claim_matrix(search_bounces, variant, k, threads):
    claim_pair(variant, search_bounces, threads, chunk_size=k)


def test_compiled_claim_queues_and_hands_off(search_bounces):
    """64 thieves on a small tree at k=1: lock queues form, so queued
    grants (``lk.pending`` across the wait) and hand-offs run."""
    _, locks = claim_pair("upc-sharedmem", search_bounces, 64, chunk_size=1)
    assert sum(contended for _, contended, _ in locks) > 0


@pytest.mark.parametrize("variant, termination", [
    ("upc-sharedmem", "streamlined"),
    ("upc-term", "cancelable-barrier"),
])
def test_compiled_claim_termination_cross_overs(search_bounces, variant,
                                                termination):
    claim_pair(variant, search_bounces, 16, config=WsConfig(
        chunk_size=2, termination_policy=termination))


@pytest.mark.parametrize("policy", ["one", "half", "all"])
def test_compiled_claim_steal_amounts(search_bounces, policy):
    claim_pair("upc-term-rapdif", search_bounces, 16, config=WsConfig(
        chunk_size=1, steal_policy=policy))


def test_compiled_claim_with_speed_factors(search_bounces):
    claim_pair("upc-term", search_bounces, 8, config=WsConfig(
        chunk_size=2, speed_factors=(1.0, 2.5) * 4))


@pytest.mark.parametrize("preset", ["topsail", "altix", "sharedmem"])
def test_compiled_claim_cost_branches(search_bounces, preset):
    """On-node lock and transfer costs (8 and all ranks a node) and
    the remote-only machine (one a node)."""
    claim_pair("upc-sharedmem", search_bounces, 16, preset=preset,
               chunk_size=2)


def test_compiled_claim_under_park(search_bounces):
    """The cancelable barrier is not park-capable, so the polling
    search is compiled under park too: a claim's advertise then tells
    the idle gate, and the gate's counters must agree."""
    claim_pair("upc-sharedmem", search_bounces, 16, config=WsConfig(
        chunk_size=2, idle_strategy="park"))


# -- park: the cross-backend matrix ------------------------------------------

@pytest.fixture
def park_counts(monkeypatch):
    """What the compiled leg of a park cell actually executed: Python
    Working-state entries, ``WorkPhase`` binds, C-kernel scans, and
    scans that ``abandon()`` cut short with a draw."""
    from repro.ws.algorithms.base import AlgorithmBase
    from repro.ws.policies import ProbeScan

    counts = dict(py_working=0, c_scans=0, cut_short=0, bound=set())
    core = fp.load_core()
    real_scan, real_abandon = core.scan_probe, ProbeScan.abandon
    real_work, real_bind = (AlgorithmBase.working_phase,
                            AlgorithmBase._build_c_phase)

    def scan_probe(scan, slots, bounds):
        counts["c_scans"] += 1
        return real_scan(scan, slots, bounds)

    def abandon(self):
        counts["cut_short"] += bool(self._m or any(self._todo))
        return real_abandon(self)

    def working_phase(self, ctx):
        counts["py_working"] += 1
        return real_work(self, ctx)

    def bind(self, rank):
        counts["bound"].add(rank)
        return real_bind(self, rank)

    monkeypatch.setattr(core, "scan_probe", scan_probe)
    monkeypatch.setattr(ProbeScan, "abandon", abandon)
    monkeypatch.setattr(AlgorithmBase, "working_phase", working_phase)
    monkeypatch.setattr(AlgorithmBase, "_build_c_phase", bind)
    return counts


def park_pair(algo, tree, counts, threads=16, **kw):
    """One park cell on both backends; returns the compiled leg's spy
    after checking it did not run the generator's loop."""
    pure = run_snapshot(algo, tree, "pure", threads, **kw)
    assert counts["c_scans"] == 0 and not counts["bound"]
    counts["py_working"] = 0
    spy = AlgoSpy()
    fast = run_snapshot(algo, tree, "fast", threads, spy=spy, **kw)
    assert fast == pure
    return spy, pure


def test_park_cells_cut_scans_short_and_leave_ranks_unbound(
        tree, park_counts):
    """The two things a small machine does not show: a scan that
    ``abandon()`` ends with one more draw (the last surplus consumed
    mid-scan), and ranks that never reach the Working state and so
    bind no ``WorkPhase`` (most of a 1024-thread machine)."""
    cfg = WsConfig(chunk_size=4, idle_strategy="park")
    compiled, _ = park_pair("upc-distmem", tree, park_counts,
                            threads=256, config=cfg)
    assert park_counts["cut_short"] > 0
    assert 1 < len(park_counts["bound"]) < 256
    assert set(range(256)) - park_counts["bound"] == {
        st.rank for st in compiled.result.per_thread if not st.nodes_visited}
    assert compiled.result.fusion.bound["work"] == len(park_counts["bound"])


@pytest.mark.parametrize("threads", [1, 2])
def test_park_on_a_tiny_machine(threads, park_counts):
    cfg = WsConfig(chunk_size=2, idle_strategy="park")
    park_pair("upc-distmem", SMALL, park_counts, threads=threads,
              config=cfg)
    assert park_counts["bound"] == set(range(threads))


def test_park_with_speed_factors(park_counts):
    """Heterogeneous visit costs: the compiled phases of one speed
    factor share one cost list, and a scaled rank gets its own."""
    cfg = WsConfig(chunk_size=2, idle_strategy="park",
                   speed_factors=(1.0, 2.5) * 4)
    compiled, _ = park_pair("upc-term-rapdif", SMALL, park_counts,
                            threads=8, config=cfg)
    assert len(compiled.algo._visit_costs) == 2  # not one per bound rank
    assert len(park_counts["bound"]) > 2


def test_park_under_a_kill_plan_runs_the_c_kernel(park_counts):
    """A fail-stop plan fuses every rank it leaves alone: the killed
    rank runs the generators (fail-stop recovery lives there), and its
    scans still take the C kernel; the slowed rank fuses, so
    ``ctx._slow`` != 1 scales its visit and scan costs in C."""
    from repro.faults.plan import parse_fault_spec

    cfg = WsConfig(chunk_size=2, idle_strategy="park",
                   faults=parse_fault_spec("kill=3@0.0002,slow=2@4", seed=0))
    compiled, snap = park_pair("upc-distmem", SMALL, park_counts,
                               threads=8, config=cfg)
    assert compiled.result.fusion.victims == {3}
    assert 3 not in park_counts["bound"] and 2 in park_counts["bound"]
    assert park_counts["py_working"] > 0 and park_counts["c_scans"] > 0
    assert snap[5][2] == 1  # the gate saw the death


def test_pinned_park_schedules_on_the_compiled_backend(tree):
    """PR 14's two traps, now that these cells run compiled.  The
    1024-thread ledger cell runs 62,181 events -- 62,189 if the draw
    ``abandon()`` owes the stream is lost -- and a scan's ``cost_acc``
    mixes local and remote references, so its sum must be taken left
    to right (``repr`` equality, not approx)."""
    cfg = WsConfig(chunk_size=4, idle_strategy="park")
    r = run_experiment("upc-distmem", tree, 1024, seed=0, fastpath="fast",
                       config=cfg)
    assert (r.total_nodes, r.engine_events, repr(r.sim_time)) == (
        214929, 62181, "0.012774226373779674")
    mixed = run_experiment("upc-distmem-hier", tree, 64, seed=0,
                           fastpath="fast", config=cfg)
    pure = run_experiment("upc-distmem-hier", tree, 64, seed=0,
                          fastpath="pure", config=cfg)
    assert (mixed.engine_events, repr(mixed.sim_time)) == (
        pure.engine_events, repr(pure.sim_time))


def test_poll_search_pins_no_per_rank_lists():
    """A 2048-thread poll machine, paused once every rank has probed
    its first round and sits in a wait.  Neither search may hold a list
    of O(threads) per rank: both price probes from the cost bounds (the
    generator used to keep a cost row per rank, n^2 pointers: 33.5 MB
    here), and both take a fresh order per round and drop it before
    waiting.  Slack: 1 MB, a thirtieth of what one retained list per
    rank would weigh; a planted list shows the census sees them.

    The same machine parked: a search holds its scan across the steal
    attempt it is in, and the scan holds its victims as ``array('i')``
    (4 bytes a victim, nothing the collector walks), so not one long
    list is new -- on either backend, with live scans to show for it."""
    from repro.harness.runner import tree_for
    from repro.net.presets import KITTYHAWK
    from repro.pgas.machine import Machine
    from repro.ws.algorithms import get_algorithm
    from repro.ws.policies import ProbeScan

    n = 2048

    def long_lists():
        gc.collect()
        return [o for o in gc.get_objects()
                if type(o) is list and len(o) >= n - 1]

    def weight(lists):
        return sum(map(sys.getsizeof, lists))

    def grown(backend, idle="poll"):
        """(bytes the long lists grew by, the long lists that are new,
        the live scans)."""
        machine = Machine(threads=n, net=KITTYHAWK, fastpath=backend)
        algo = get_algorithm("upc-distmem")(
            machine, tree_for(SMALL),
            WsConfig(chunk_size=2, idle_strategy=idle))
        machine.spawn_all(algo.thread_main)
        before = long_lists()
        machine.sim.run(until=2e-4)
        assert machine.sim.events_processed > n  # every rank has run
        assert bool(algo.fusion.bound) is (backend == "fast")
        after = long_lists()
        new = [o for o in after if not any(o is b for b in before)]
        scans = [o for o in gc.get_objects() if type(o) is ProbeScan]
        return weight(after) - weight(before), len(new), scans

    before = weight(long_lists())
    planted = [[0] * n for _ in range(64)]
    assert weight(long_lists()) - before >= 64 * (n - 1) * 8
    del planted
    assert grown("pure")[0] <= 1e6
    assert grown("fast")[0] <= 1e6
    for backend in ("pure", "fast"):
        _, new, scans = grown(backend, "park")
        assert new == 0 and scans
        assert all(type(seg) is array for scan in scans
                   for seg in (scan._items, *scan._todo))
        del scans


def test_probe_order_stating_no_segments(monkeypatch):
    """``segments()`` may state no victims at all: every round is
    empty on both backends (work then moves in the barrier's
    single-victim probes only)."""
    from repro.ws.policies import ProbeOrder

    monkeypatch.setattr(ProbeOrder, "segments", lambda self: [])
    kw = dict(threads=4, chunk_size=2)
    pure = run_snapshot("upc-term", SMALL, "pure", **kw)
    assert pure[1] > 900 and all(p[1] for p in pure[4][1:])  # still probes
    assert run_snapshot("upc-term", SMALL, "fast", **kw) == pure


#: Victim segments both compiled readers must refuse by name, never
#: crash on (CI runs this file under ``python -X dev``): the poll
#: ``SearchPhase`` shuffles and reads them, the park ``scan_probe``
#: swaps them in place.  (The generators would not say ``fastpath:``.)
NOT_INTS = r"fastpath: a victim segment must be an array\('i'\)"
OUT_OF_RANGE = "fastpath: probe victim out of range"
MALFORMED = {
    "list": (lambda n: [1, 2], TypeError, NOT_INTS + ", not list"),
    "int64-array": (lambda n: array("q", [1, 2]), TypeError, NOT_INTS),
    "float-array": (lambda n: array("d", [1.0]), TypeError, NOT_INTS),
    "rank-n": (lambda n: array("i", [n]), IndexError, OUT_OF_RANGE),
    "rank-negative": (lambda n: array("i", [-1]), IndexError, OUT_OF_RANGE),
}


@pytest.mark.parametrize("idle", ["poll", "park"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_segments_are_refused_by_name(monkeypatch, case, idle):
    from repro.ws.policies import ProbeOrder

    segment, error, match = MALFORMED[case]
    monkeypatch.setattr(ProbeOrder, "segments",
                        lambda self: [segment(self._n)])
    with pytest.raises(error, match=match):
        run_snapshot("upc-term", SMALL, "fast", threads=4, config=WsConfig(
            chunk_size=2, idle_strategy=idle))


def test_stream_without_getrandbits_falls_back_to_cycle(tree, monkeypatch):
    """The compiled search phase has one victim source: the probe
    order's segments, shuffled natively over the stream's public
    ``getrandbits``.  Over a stream that has none, the gate declines
    the search (and the claim and barrier it carries), and the generator
    search calls ``cycle()`` per round -- same draws either way, so the
    schedule must not move."""
    from repro.ws.policies import ProbeOrder
    from repro.ws.registry import VICTIM_POLICIES

    class OpaqueStream:
        def __init__(self, rng):
            self.shuffled = rng.shuffled
            self.randrange = rng.randrange

    stock = run_snapshot("upc-distmem", tree, "fast", chunk_size=8)
    monkeypatch.setitem(
        VICTIM_POLICIES, "uniform",
        lambda rank, n, rng, net: ProbeOrder(rank, n, OpaqueStream(rng)))
    spy = AlgoSpy()
    assert run_snapshot("upc-distmem", tree, "fast", spy=spy,
                        chunk_size=8) == stock
    fusion = spy.result.fusion
    assert set(fusion.bound) == {"work"} and fusion.bound["work"] > 0
    assert fusion.declined == dict.fromkeys(
        ("search", "claim", "barrier"), "a probe stream without getrandbits")


def test_backends_actually_differ(tree):
    """Guard against vacuous equality: the fast leg must really engage
    the compiled loop (a broken gate would silently compare pure to
    pure and the suite would prove nothing)."""
    from repro.pgas.machine import Machine
    from repro.net.presets import get_preset

    m = Machine(threads=4, net=get_preset("kittyhawk"), seed=0,
                fastpath="fast")
    assert m.sim.fastpath_active
    m2 = Machine(threads=4, net=get_preset("kittyhawk"), seed=0,
                 fastpath="pure")
    assert not m2.sim.fastpath_active


# -- park: the gated SearchPhase ----------------------------------------------

@pytest.fixture
def gated(monkeypatch):
    """What the compiled leg of a cell ran: the ranks that bound a
    ``SearchPhase``, the generator searches by rank, and the Python
    claims by thief rank."""
    from collections import Counter

    from repro.ws.algorithms.base import AlgorithmBase
    from repro.ws.algorithms.lock_based import LockBasedAlgorithm

    seen = dict(bound=set(), py_search=Counter(), py_claims=Counter())
    search, bind, claim = (AlgorithmBase.search_phase,
                           AlgorithmBase._build_c_search,
                           LockBasedAlgorithm._claim)

    def search_phase(self, ctx):
        seen["py_search"][ctx.rank] += 1
        return search(self, ctx)

    def build_c_search(self, rank):
        phase = bind(self, rank)
        if phase is not None:
            seen["bound"].add(rank)
        return phase

    def _claim(self, ctx, victim):
        seen["py_claims"][ctx.rank] += 1
        return claim(self, ctx, victim)

    monkeypatch.setattr(AlgorithmBase, "search_phase", search_phase)
    monkeypatch.setattr(AlgorithmBase, "_build_c_search", build_c_search)
    monkeypatch.setattr(LockBasedAlgorithm, "_claim", _claim)
    return seen


def locks_of(algo):
    return [(lk.acquisitions, lk.contended_acquisitions, repr(lk.busy_time))
            for lk in getattr(algo, "stack_locks", ())]


def gated_pair(seen, snapshot):
    """``snapshot(backend, spy)`` on both backends: one schedule, the
    same stack-lock counters, nothing left in flight -- and, on the
    compiled leg, the search of every rank the fault plan leaves alone
    bound in C (its generator never ran) and, where the gate binds the
    claim, not one claim of theirs run in Python.  Returns the compiled
    leg's spy."""
    legs = {}
    for backend in ("pure", "fast"):
        for counts in seen.values():
            counts.clear()
        spy = AlgoSpy()
        snap = snapshot(backend, spy)
        assert spy.algo.in_flight_nodes == 0
        legs[backend] = (snap, locks_of(spy.algo))
    assert legs["fast"] == legs["pure"]
    fusion = spy.result.fusion
    killed = fusion.victims
    assert fusion.bound["search"] == len(seen["bound"]) > 0
    assert not seen["bound"] & killed
    assert set(seen["py_search"]) <= killed
    if "claim" in fusion.bound:
        assert set(seen["py_claims"]) <= killed
    return spy


PARK = WsConfig(chunk_size=2, idle_strategy="park")


@pytest.mark.parametrize("threads", [1, 2, 16, 4096])
@pytest.mark.parametrize("variant", ["upc-term", "upc-term-rapdif",
                                     "upc-distmem"])
def test_gated_search_matrix(gated, variant, threads):
    """The gated search compiled: parks, wakes (the targeted one of a
    ``upc-distmem`` thief included), resume delays, rounds opened only
    on surplus and cut short when it goes; upc-distmem bounces every
    steal attempt, the lock-based variants claim in C.  4096 ranks
    mostly park and never scan."""
    gate = gated_pair(gated, lambda backend, spy: run_snapshot(
        variant, SMALL, backend, threads, spy=spy, config=PARK)).algo._gate
    assert len(gated["bound"]) == threads
    if threads > 1:
        assert gate.parks > 0 and gate.wakes > 0


@pytest.mark.parametrize("faults", [None, "storm(kill:3@t=0.05ms..0.2ms)"])
def test_gated_search_of_the_service_pool(gated, faults):
    """The service pool's search: gated but not persistent (one round,
    no parks inside it), claimed in C -- under a kill storm on every
    rank the storm spares."""
    from repro.faults.plan import parse_fault_spec
    from repro.service import ArrivalProcess, ServiceConfig, run_service

    # the stream of the golden corpus's Working/Searching cells
    service = ServiceConfig(
        arrivals=ArrivalProcess(rate=8e5), n_tasks=120, queue_capacity=16,
        policy="shed-oldest", deadline=150e-6, max_retries=2,
        task_engine="splitmix", seed=3)
    plan = faults and parse_fault_spec(faults, seed=7)

    def snapshot(backend, spy):
        r = spy.result = run_service(service, 16, seed=1, config=PARK,
                                     tracer=spy, fastpath=backend,
                                     faults=plan)
        gate = spy.algo._gate
        return (r.total_nodes, r.engine_events, repr(r.sim_time),
                r.lost_work, r.admitted, r.completed, r.lost_tasks,
                r.retries, per_thread(r),
                r.fault_counters and vars(r.fault_counters),
                (gate.parks, gate.wakes, gate.deaths))

    res = gated_pair(gated, snapshot).result
    assert len(res.fusion.victims) == (3 if faults else 0)
    assert "claim" in res.fusion.bound
    assert sum(st.steals_ok for st in res.per_thread) > 0


@pytest.mark.parametrize("variant", ["upc-term", "upc-term-rapdif",
                                     "upc-sharedmem", "upc-distmem"])
@pytest.mark.parametrize("idle", ["poll", "park"])
def test_a_kill_plan_fuses_every_rank_it_leaves_alone(gated, variant, idle):
    """The compiled claim under a fail-stop plan: a rank that never dies
    does not journal its transfers (``rt.begin_transfer`` /
    ``end_transfer``), which nothing reads unless the rank dies.  The
    run must show it: the same schedule, the same loss (``lost_work``
    and every fault counter, the in-run conservation checks included),
    while the victims' searches and claims stay in Python."""
    from repro.faults.plan import parse_fault_spec

    plan = parse_fault_spec("kill=3@120us,kill=6@300us,slow=2@3", seed=0)
    cfg = WsConfig(chunk_size=2, idle_strategy=idle, faults=plan)

    def snapshot(backend, spy):
        snap = run_snapshot(variant, SMALL, backend, 8, spy=spy, config=cfg)
        return snap, vars(spy.algo.faults_rt.counters)

    res = gated_pair(gated, snapshot).result
    counters = vars(res.fault_counters)
    assert res.fusion.victims == {3, 6} and counters["threads_killed"] == 2
    assert counters["invariant_checks"] > 0
    assert gated["bound"] == set(range(8)) - {3, 6}  # the slowed rank too
    assert sum(res.per_thread[r].steals_ok for r in gated["bound"]) > 0


def test_mpi_ws_under_a_fault_plan_never_binds_the_idle_wait():
    """mpi-ws's compiled idle wait knows no steal timeout and no
    suspicion test.  Bound under a kill plan -- whose spared ranks fuse
    their Working state -- a thief keeps waiting in C where the
    generator times out its request to a dead victim, and the schedule
    forks (1,035 events against 1,699 here), so under a plan the Python
    idle loop runs on every rank."""
    from repro.faults.plan import parse_fault_spec

    plan = parse_fault_spec("kill=3@50us,kill=5@120us", seed=7)
    tree = TreeParams.binomial(b0=200, q=0.49, seed=0)
    legs = {}
    for backend in ("pure", "fast"):
        spy = AlgoSpy()
        legs[backend] = run_snapshot("mpi-ws", tree, backend, 8, spy=spy,
                                     chunk_size=4, faults=plan)
    assert legs["fast"] == legs["pure"]
    fusion = spy.result.fusion
    assert fusion.victims == {3, 5} and set(fusion.bound) == {"work"}
    assert fusion.declined == {"idle": "a fault plan (the C wait times no "
                                       "steal out)"}


# -- the streamlined barrier inside SearchPhase --------------------------------

@pytest.fixture
def barrier_seen(monkeypatch):
    """What the compiled leg of a cell ran around its barriers: the
    generator barriers (``StreamlinedTermination.phase`` runs) by rank,
    and every value a fused phase bounced, by ``(state, kind)``: state
    ``"search"`` or ``"barrier"`` (``phase.in_barrier``), kind
    ``"service"``, ``"woke"`` (a service bounced at the instant a
    thief's targeted wake reached the parked rank), ``"steal"``,
    ``"declare"`` or ``"recover"``."""
    from collections import Counter

    from repro.ws.algorithms.base import AlgorithmBase
    from repro.ws.idle import IdleGate
    from repro.ws.termination.strategies import StreamlinedTermination

    seen = dict(generators=Counter(), bounces=Counter())
    woken = set()
    phase, wake, fused = (StreamlinedTermination.phase, IdleGate.wake,
                          AlgorithmBase._search_fused)

    def generator_phase(self, ctx):
        seen["generators"][ctx.rank] += 1
        return phase(self, ctx)

    def targeted_wake(self, rank):
        if rank in self._parked:
            woken.add((rank, self.sim.now))
        wake(self, rank)

    def search_fused(self, ctx, ph):
        inner = fused(self, ctx, ph)
        awaited = next(inner)
        while True:
            value = yield awaited
            if awaited is ph and value is not None:
                state = "barrier" if ph.in_barrier else "search"
                kind = (value if type(value) is str else "steal"
                        if type(value) is int else "woke"
                        if (ctx.rank, ctx.now) in woken else "service")
                seen["bounces"][state, kind] += 1
            try:
                awaited = inner.send(value)
            except StopIteration as stop:
                return stop.value

    monkeypatch.setattr(StreamlinedTermination, "phase", generator_phase)
    monkeypatch.setattr(IdleGate, "wake", targeted_wake)
    monkeypatch.setattr(AlgorithmBase, "_search_fused", search_fused)
    return seen


def barrier_pair(seen, variant, threads, tree=SMALL, **cfg):
    """One streamlined cell on both backends: the schedule, per-thread
    stats (``barrier_entries`` / ``barrier_exits`` too), every stack
    lock's and ``sbarrier.lock``'s counters, the gate's parks, wakes and
    deaths, the fault counters -- and, on the compiled leg, no fused
    rank ever in a generator barrier: the barrier ran inside its
    ``SearchPhase``, handing back only the bounces ``seen`` counts.
    Returns the compiled leg's algorithm and the gate's answer."""
    if variant == "upc-sharedmem":
        cfg["termination_policy"] = "streamlined"
    config = WsConfig(**cfg)
    legs = {}
    for backend in ("pure", "fast"):
        for counts in seen.values():
            counts.clear()
        spy = AlgoSpy()
        snap = run_snapshot(variant, tree, backend, threads, spy=spy,
                            config=config)
        algo = spy.algo
        lock = algo.barrier.lock
        rt = algo.faults_rt
        legs[backend] = (
            snap,
            [(st.barrier_entries, st.barrier_exits) for st in algo.stats],
            (lock.acquisitions, lock.contended_acquisitions,
             repr(lock.busy_time)),
            locks_of(algo), rt and vars(rt.counters))
    assert legs["fast"] == legs["pure"]
    bounces = seen["bounces"]
    fusion = spy.result.fusion
    assert "barrier" in fusion.bound and (bounces["barrier", "declare"]
                                          + bounces["barrier", "recover"]) >= 1
    assert set(seen["generators"]) <= fusion.victims
    return algo, fusion


IDLE = ["poll", "park"]
STREAMLINED = ["upc-term", "upc-term-rapdif", "upc-distmem", "upc-sharedmem"]


@pytest.mark.parametrize("threads", [1, 2, 16, 512])
@pytest.mark.parametrize("idle", IDLE)
@pytest.mark.parametrize("variant", STREAMLINED)
def test_fused_barrier_matrix(barrier_seen, variant, idle, threads):
    """The streamlined barrier compiled: count in and out under
    ``sbarrier.lock``, one ``one()`` victim a poll (doubling), parks
    and resume delays, leave-steal-re-enter (claimed in C by the
    lock-based variants, bounced by upc-distmem) -- and exactly one
    declaration a run, the one bounce every fused barrier makes."""
    algo, _ = barrier_pair(barrier_seen, variant, threads, chunk_size=2,
                           idle_strategy=idle)
    bounces = barrier_seen["bounces"]
    assert bounces["barrier", "declare"] == 1
    assert sum(st.barrier_entries for st in algo.stats) >= threads
    if variant != "upc-distmem":
        assert bounces["barrier", "steal"] == bounces["search", "steal"] == 0
    if threads > 1:
        assert sum(st.probes for st in algo.stats) > 0


@pytest.mark.parametrize("variant", STREAMLINED)
def test_fused_barrier_on_a_4096_thread_park_machine(barrier_seen, variant):
    """Almost every rank of the machine waits parked in the barrier,
    and the announcer's wake-all resumes them all in C."""
    algo, _ = barrier_pair(barrier_seen, variant, 4096, chunk_size=2,
                           idle_strategy="park")
    assert barrier_seen["bounces"]["barrier", "declare"] == 1
    assert algo._gate.parks > 4000


#: The cells of the kill plan below whose last survivor enters the
#: barrier after the death, and so declares as the last one in.
LAST_IN = {("upc-term-rapdif", "poll"), ("upc-distmem", "park")}


@pytest.mark.parametrize("idle", IDLE)
@pytest.mark.parametrize("variant", STREAMLINED)
def test_fused_barrier_declares_after_a_death(barrier_seen, variant, idle):
    """A fail-stop plan fuses every rank it spares.  Rank 3 dies while
    the others wait, so a waiter finds the barrier full and declares
    after the death (the ``recover`` bounce; in two cells the last
    survivor enters after it instead); the killed rank's own barrier
    is the only generator one."""
    from repro.faults.plan import parse_fault_spec

    algo, fusion = barrier_pair(
        barrier_seen, variant, 16, chunk_size=2, idle_strategy=idle,
        faults=parse_fault_spec("kill=3@575us", seed=0))
    assert fusion.victims == {3}
    assert algo.faults_rt.counters.threads_killed == 1
    recovered = barrier_seen["bounces"]["barrier", "recover"]
    assert recovered == (0 if (variant, idle) in LAST_IN else 1)


#: A upc-distmem park cell in which thieves' targeted wakes reach
#: parked victims both in the search (three) and in the barrier (three).
WAKE_TREE = TreeParams.binomial(b0=64, q=0.48, seed=2)


def test_a_targeted_wake_bounces_the_request_in_either_state(barrier_seen):
    """A upc-distmem thief pokes its request into a victim that has
    since parked, and wakes it: the victim must serve the request the
    instant it wakes, before its resume delay -- in the search state
    (``SP_WOKE_SVC``) and in the barrier (``SB_WOKE_SVC``) alike."""
    barrier_pair(barrier_seen, "upc-distmem", 32, tree=WAKE_TREE,
                 chunk_size=4, idle_strategy="park")
    bounces = barrier_seen["bounces"]
    assert bounces["search", "woke"] > 0 and bounces["barrier", "woke"] > 0
