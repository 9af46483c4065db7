"""The compiled phase types' object lifecycle: one table-driven
``tp_init`` / ``tp_traverse`` / ``tp_clear`` / ``tp_dealloc`` in
``_core.c`` serves all three, so every check here runs on all three --
the one ``WorkPhase`` as a locked, a slot-polling and a mailbox-polling
variant and the service pool (drain ledger stated) bind it.

Each phase is built with exactly the keywords its algorithm's own
``_build_c_*`` binder passes (captured by standing in for the
algorithm's ``_core`` -- the first bind's template takes every member
-- and for ``load_core()``), because the binders are the constructors'
only callers and the contract under test is theirs:

* construction takes references and gives every one of them back;
* a phase in a reference cycle with its worker is collected;
* a second ``__init__`` is refused before any member is touched (at
  the parent it re-bound the members without releasing them: 1,000
  calls took ``IdlePhase``'s ``pending`` from 4 references to 1,004,
  and the working phases re-exported ``delta`` / ``size`` over the held
  buffers, so the arrays could never be resized again);
* a missing or an unknown keyword is a ``TypeError`` naming it, a
  switch handed over without the members it needs is a ``ValueError``
  naming the rule, and a construction that fails half-way leaks
  nothing.

Skipped when the extension is not built.
"""

import gc
import sys
import weakref
from array import array

import pytest

import repro.fastpath as fp
from repro.harness.runner import tree_for
from repro.net.presets import KITTYHAWK
from repro.pgas.machine import Machine
from repro.service import ServiceConfig, ServiceRuntime
from repro.service.algorithm import ServiceAlgorithm
from repro.service.tasks import ServiceWorkload
from repro.uts.params import TreeParams
from repro.ws.algorithms import get_algorithm
from repro.ws.config import WsConfig

pytestmark = pytest.mark.skipif(
    not fp.available(), reason="compiled core not built on this host")

TREE = TreeParams.binomial(b0=64, q=0.48, seed=1)

#: (variant, binder, phase type): the constructor call sites
#: (``+park``: under an idle gate, which the Working state then holds,
#: and the search too where the termination policy parks; the
#: streamlined variants' searches bind the barrier as well).
BINDERS = [
    ("service-ws", "_build_c_phase", "WorkPhase"),
    ("upc-sharedmem", "_build_c_phase", "WorkPhase"),
    ("upc-distmem", "_build_c_phase", "WorkPhase"),
    ("upc-term+park", "_build_c_phase", "WorkPhase"),
    ("mpi-ws", "_build_c_phase", "WorkPhase"),
    ("upc-distmem", "_build_c_search", "SearchPhase"),
    ("upc-term", "_build_c_search", "SearchPhase"),
    ("upc-sharedmem+park", "_build_c_search", "SearchPhase"),
    ("upc-term+park", "_build_c_search", "SearchPhase"),
    ("upc-distmem+park", "_build_c_search", "SearchPhase"),
    ("service-ws+park", "_build_c_search", "SearchPhase"),
    ("mpi-ws", "_build_c_idle", "IdlePhase"),
]
IDS = [f"{variant}-{kind}" for variant, _binder, kind in BINDERS]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_FASTPATH", raising=False)


def build(variant):
    variant, _, park = variant.partition("+")
    machine = Machine(threads=4, net=KITTYHAWK, fastpath="fast")
    if variant == "service-ws":
        service = ServiceConfig(n_tasks=20)
        workload = ServiceWorkload(service.inner_params(), seed=service.seed)
        algo = ServiceAlgorithm(machine, workload, WsConfig(
            chunk_size=2, idle_strategy=park or "poll"))
        return machine, (algo, ServiceRuntime(service, machine, algo,
                                              workload))
    algo = get_algorithm(variant)(
        machine, tree_for(TREE),
        WsConfig(chunk_size=4, idle_strategy=park or "poll"))
    return machine, algo


class CapturingCore:
    """Stands in for the compiled core: records the keywords a binder
    constructs a phase with (its template, which every rank's phase is
    a ``copy()`` of) instead of constructing it."""

    def __init__(self):
        self.kwargs = None

    def __getattr__(self, name):
        def capture(**kwargs):
            self.kwargs = kwargs
            return self
        return capture

    def copy(self, **kwargs):
        return None


def capture(monkeypatch, variant, binder, kind):
    """``(phase type, keywords, keep-alive)`` for one call site."""
    machine, algo = build(variant)
    core = CapturingCore()
    owner = algo[0] if isinstance(algo, tuple) else algo
    with monkeypatch.context() as mp:
        mp.setattr(fp, "load_core", lambda: core)
        mp.setattr(owner, "_core", core)
        getattr(owner, binder)(1)
    return getattr(fp.load_core(), kind), core.kwargs, (machine, algo)


@pytest.fixture(params=BINDERS, ids=IDS)
def bound(request, monkeypatch):
    return capture(monkeypatch, *request.param)


def held(kwargs):
    """The arguments a phase keeps a reference to (or an export of):
    every object but the numbers it copies and the cost list it
    converts.  ``None`` and ints have no meaningful reference count,
    and neither has ``barrier_state``: the state name ``BARRIER`` is
    also a key of every live or collectable ``StateTimer``'s table."""
    return {k: v for k, v in kwargs.items()
            if k not in ("visit_costs", "barrier_state")
            and not isinstance(v, (type(None), bool, int, float))}


def refcounts(objs):
    # collect first: the cached tree (and its arrays) is shared with
    # every machine an earlier test left behind as garbage
    gc.collect()
    return {k: sys.getrefcount(v) for k, v in objs.items()}


def test_construction_returns_every_reference(bound):
    cls, kwargs, _alive = bound
    objs = held(kwargs)
    assert objs
    baseline = refcounts(objs)
    phase = cls(**kwargs)
    assert not phase.running
    taken = refcounts(objs)
    assert all(taken[k] > baseline[k] for k in objs), (baseline, taken)
    del phase
    assert refcounts(objs) == baseline


def test_second_init_is_refused_and_leaks_nothing(bound):
    cls, kwargs, _alive = bound
    if "delta" in kwargs:
        # private copies, so that the resize probe below cannot be
        # blocked by anyone else's export of the shared tree's arrays
        kwargs = dict(kwargs, delta=array("i", kwargs["delta"]),
                      size=array("i", kwargs["size"]))
        if kwargs["task_of"] is not None:
            kwargs["task_of"] = array("i", kwargs["task_of"])
    objs = held(kwargs)
    baseline = refcounts(objs)
    phase = cls(**kwargs)
    taken = refcounts(objs)
    for _ in range(1000):
        with pytest.raises(TypeError, match="twice"):
            phase.__init__(**kwargs)
    assert refcounts(objs) == taken
    del phase
    assert refcounts(objs) == baseline
    if "delta" in kwargs:
        kwargs["delta"].append(0)  # BufferError while an export is held
        kwargs["size"].append(0)
        if kwargs["task_of"] is not None:
            kwargs["task_of"].append(0)


def test_bad_keywords_are_named_and_leak_nothing(bound):
    cls, kwargs, _alive = bound
    objs = held(kwargs)
    baseline = refcounts(objs)
    with pytest.raises(TypeError, match="'no_such_keyword'"):
        cls(**kwargs, no_such_keyword=1)
    for name in kwargs:
        with pytest.raises(TypeError, match=f"'{name}'"):
            cls(**{k: v for k, v in kwargs.items() if k != name})
    with pytest.raises(TypeError, match="keyword"):
        cls(*kwargs.values())
    assert refcounts(objs) == baseline


@pytest.mark.parametrize("variant, kind, without, rule", [
    ("mpi-ws", "WorkPhase", "pending", "poll needs the pending list"),
    ("upc-distmem", "WorkPhase", "no_work", "wa needs the no_work sentinel"),
    ("upc-sharedmem", "WorkPhase", "fifo", "barrier_dict needs the fifo"),
    ("upc-term+park", "WorkPhase", "gate_cat", "gate needs the wa"),
    ("upc-term+park", "WorkPhase", "wa", "gate needs the wa"),
    ("service-ws", "WorkPhase", "task_of", "drained needs task_of"),
    ("service-ws", "WorkPhase", "outstanding", "drained needs task_of"),
    ("service-ws", "WorkPhase", "task_nodes", "drained needs task_of"),
    ("service-ws", "WorkPhase", "drained", "drained needs task_of"),
    ("upc-sharedmem+park", "SearchPhase", "stacks", "locks needs stacks"),
    ("upc-sharedmem+park", "SearchPhase", "claim_costs",
     "locks needs stacks"),
    ("upc-sharedmem+park", "SearchPhase", "states", "locks needs stacks"),
    ("upc-sharedmem+park", "SearchPhase", "locks", "claim's stacks, "),
    ("upc-sharedmem+park", "SearchPhase", "gate_cat", "gate and its _cat"),
    ("upc-term+park", "SearchPhase", "gate", "gate and its _cat"),
    ("upc-distmem+park", "SearchPhase", "gate_cat", "gate and its _cat"),
    ("service-ws+park", "SearchPhase", "gate", "gate and its _cat"),
    ("upc-term+park", "SearchPhase", "rng", "sbarrier needs rng"),
    ("upc-term", "SearchPhase", "barrier_state", "sbarrier needs rng"),
    ("upc-distmem", "SearchPhase", "barrier_lock_costs",
     "sbarrier needs rng"),
    ("upc-distmem+park", "SearchPhase", "sbarrier",
     "barrier_state and barrier_lock_costs need sbarrier"),
])
def test_half_stated_switch_is_refused_and_leaks_nothing(
        monkeypatch, variant, kind, without, rule):
    """A switch of the Working state is a member group, and so are the
    search's compiled claim, its idle gate and its barrier: the variant's own
    keywords with one member of a group taken away must not
    construct."""
    binder = {"WorkPhase": "_build_c_phase",
              "SearchPhase": "_build_c_search"}[kind]
    cls, kwargs, _alive = capture(monkeypatch, variant, binder, kind)
    assert kwargs[without] is not None
    objs = held(kwargs)
    baseline = refcounts(objs)
    with pytest.raises(ValueError, match=rule):
        cls(**dict(kwargs, **{without: None}))
    assert refcounts(objs) == baseline


@pytest.mark.parametrize("bad, error, rule", [
    ({"task_of": array("i", [-1, 0])}, ValueError, "a task per tree position"),
    ({"task_nodes": array("i", [0])}, ValueError, "equal-length"),
    ({"outstanding": array("q", [0] * 20)}, TypeError,
     r"outstanding must be an array\('i'\)"),
    ({"task_nodes": bytes(80)}, BufferError, "not writable"),
])
def test_work_phase_refuses_malformed_ledger_tables(monkeypatch, bad, error,
                                                    rule):
    cls, kwargs, _alive = capture(monkeypatch, "service-ws", "_build_c_phase",
                                  "WorkPhase")
    objs = held(kwargs)
    baseline = refcounts(objs)
    with pytest.raises(error, match=rule):
        cls(**dict(kwargs, **bad))
    assert refcounts(objs) == baseline


@pytest.mark.parametrize("bad, rule", [
    ({"fifo": object()}, "fifo must be a FifoLock"),
    ({"states": ("WORKING",)}, "states must be a pair"),
])
def test_work_phase_refuses_a_lock_that_is_no_fifo_lock(monkeypatch, bad,
                                                        rule):
    """The lock's slots are read in place, so only a FifoLock will do;
    nor will ``states`` that are not the pair the phase enters and
    leaves on the rank's ``timer``."""
    cls, kwargs, _alive = capture(monkeypatch, "upc-sharedmem",
                                  "_build_c_phase", "WorkPhase")
    objs = held(kwargs)
    baseline = refcounts(objs)
    with pytest.raises(ValueError, match=rule):
        cls(**dict(kwargs, **bad))
    assert refcounts(objs) == baseline


@pytest.mark.parametrize("bad, rule", [
    ({"segments": [[1, 2]]}, "getrandbits and segments must be callable"),
    ({"bounds": (0, 4)}, "bounds must be"),
    ({"steal": "most"}, "steal must be one, half or all"),
    ({"claim_costs": (1.0, 2.0)}, "claim_costs must be"),
    ({"scan": 42}, "scan must be callable"),
    ({"barrier_lock_costs": (1.0, 2.0)}, "barrier_lock_costs must be"),
    ({"sbarrier": {}}, "sbarrier's lock must be a GlobalLock"),
])
def test_search_phase_refuses_malformed_arguments(monkeypatch, bad, rule):
    cls, kwargs, _alive = capture(monkeypatch, "upc-term", "_build_c_search",
                                  "SearchPhase")
    objs = held(kwargs)
    baseline = refcounts(objs)
    with pytest.raises(ValueError, match=rule):
        cls(**dict(kwargs, **bad))
    assert refcounts(objs) == baseline


@pytest.mark.parametrize("variant, binder, kind, half, rule", [
    ("upc-term+park", "_build_c_phase", "WorkPhase", "wa", "gate needs"),
    ("upc-distmem", "_build_c_search", "SearchPhase", "sbarrier",
     "need sbarrier"),
])
def test_a_copy_is_bound_like_its_template(monkeypatch, variant, binder,
                                          kind, half, rule):
    """``copy(**kw)`` -- what a binder makes every rank's phase with --
    binds the template's members with ``kw`` in place of theirs: it
    takes a reference to each (and an export of each buffer), gives
    every one back, refuses an unknown keyword or a half-stated group
    by name, and leaks nothing when it does."""
    cls, kwargs, _alive = capture(monkeypatch, variant, binder, kind)
    template = cls(**kwargs)
    rank = {k: v for k, v in kwargs.items()
            if k in ("st_dict", "timer", "rank")}
    objs = held(kwargs)
    baseline = refcounts(objs)
    twin = template.copy(**rank)
    assert type(twin) is cls and not twin.running
    taken = refcounts(objs)
    assert all(taken[k] > baseline[k] for k in objs), (baseline, taken)
    with pytest.raises(TypeError, match="'no_such_keyword'"):
        template.copy(no_such_keyword=1)
    with pytest.raises(ValueError, match=rule):
        template.copy(**{half: None})
    with pytest.raises(TypeError, match="keyword"):
        template.copy(1)
    assert refcounts(objs) == taken
    del twin
    assert refcounts(objs) == baseline
    with pytest.raises(TypeError, match="before __init__"):
        cls.__new__(cls).copy()


@pytest.mark.parametrize("variant, kind", [
    ("upc-sharedmem", "WorkPhase"),
    ("upc-distmem", "WorkPhase"),
    ("upc-term", "SearchPhase"),
    ("upc-term+park", "SearchPhase"),
    ("mpi-ws", "IdlePhase"),
])
def test_phase_in_a_cycle_with_its_worker_is_collected(variant, kind):
    """While a worker is inside a phase the two form a cycle (phase ->
    worker Process -> generator frame -> algorithm -> its phase cache
    -> phase) that only ``tp_traverse`` reporting the worker lets the
    collector see; a parked search closes another through the idle
    gate's event, and a gated round holds its scan.  Pause a fused run with such a phase live, drop
    every outside reference, and the whole machine must go."""
    machine, algo = build(variant)
    machine.spawn_all(algo.thread_main)
    for step in range(1, 200):
        machine.sim.run(until=step * 5e-6)
        if any(type(ph).__name__ == kind and ph.running
               for ph in algo._c_phases.values()):
            break
    else:
        pytest.fail(f"no {kind} ever had a worker inside it")
    assert machine.sim.queue_size > 0  # paused mid-run, not finished
    gone = weakref.ref(algo)
    del machine, algo
    gc.collect()
    assert gone() is None


def test_phase_bound_mid_run_reentered_and_torn_down_leaks_nothing():
    """A ``WorkPhase`` is bound at its rank's first Working entry, in
    the middle of the run, and re-entered for every later episode.
    Nothing is bound before the first event; a rank that never works
    binds nothing; and when the finished machine goes, every reference
    and buffer export its phases took goes with it (under ``-X dev`` a
    miscounted one aborts in the debug allocator instead)."""
    tree = tree_for(TREE)
    shared = {"delta": tree.delta, "size": tree.size}
    baseline = refcounts(shared)
    machine = Machine(threads=64, net=KITTYHAWK, fastpath="fast")
    algo = get_algorithm("upc-distmem")(
        machine, tree, WsConfig(chunk_size=2, idle_strategy="park"))
    machine.spawn_all(algo.thread_main)
    assert not algo._c_phases
    machine.run()
    algo.finalize()
    phases = {rank: ph for (binder, rank), ph in algo._c_phases.items()
              if binder == "_build_c_phase"}
    worked = {st.rank for st in algo.stats if st.nodes_visited}
    assert set(phases) == worked and 1 < len(worked) < 64
    assert not any(ph.running for ph in phases.values())
    # stolen work twice: at least two Working episodes through one phase
    assert any(algo.stats[rank].steals_ok >= 2 for rank in phases)
    taken = refcounts(shared)
    assert all(taken[k] >= baseline[k] + len(phases) for k in shared)
    gone = weakref.ref(algo)
    del machine, algo, phases
    assert refcounts(shared) == baseline
    assert gone() is None
