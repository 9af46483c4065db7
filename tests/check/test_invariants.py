"""InvariantMonitor: passes real runs, catches seeded corruption.

Positive direction: every variant's canonical run satisfies I1-I5 with
the monitor attached, and attaching it never perturbs the schedule.
Negative direction: corrupting one ledger entry, stealing a lock
release, or duplicating a node descriptor makes the monitor raise
:class:`InvariantViolation` at the next check -- each seeded fault maps
to the invariant that owns it.
"""

import dataclasses
import gc
import re

import pytest

import repro.fastpath as fp
from repro import ALGORITHMS, TreeParams, WsConfig, run_experiment
from repro.check import InvariantMonitor, check_run
from repro.errors import InvariantViolation
from repro.ws.stack import SplitStack

ALL_VARIANTS = ("upc-sharedmem", "upc-term", "upc-term-rapdif",
                "upc-distmem", "upc-distmem-hier", "mpi-ws")


def _monitored_run(variant, **overrides):
    kwargs = dict(tree=TreeParams.binomial(b0=32, m=2, q=0.45, seed=1),
                  threads=8, preset="kittyhawk", chunk_size=4, verify=True)
    kwargs.update(overrides)
    monitor = InvariantMonitor()
    res = run_experiment(variant, tracer=monitor, **kwargs)
    return res, monitor


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_canonical_runs_satisfy_all_invariants(variant):
    res, monitor = _monitored_run(variant)
    monitor.final_check()
    assert monitor.checks > 0
    assert monitor.terminations_seen >= 1
    assert res.total_nodes > 0


def test_monitor_does_not_perturb_the_schedule():
    bare = run_experiment(
        "upc-distmem", tree=TreeParams.binomial(b0=32, m=2, q=0.45, seed=1),
        threads=8, preset="kittyhawk", chunk_size=4)
    res, _ = _monitored_run("upc-distmem")
    assert res.engine_events == bare.engine_events
    assert res.sim_time == bare.sim_time


def test_unattached_monitor_fails_final_check():
    with pytest.raises(InvariantViolation, match="never attached"):
        InvariantMonitor().final_check()


# -- seeded corruption: each fault trips the invariant that owns it ----------


class _Tamper(InvariantMonitor):
    """Corrupt the run's state at the first emit past ``at_emit`` where
    the corruption can apply (``corrupt`` returns True), then keep
    checking -- the monitor must object at that same emit."""

    def __init__(self, at_emit, corrupt):
        super().__init__()
        self._at_emit = at_emit
        self._corrupt = corrupt
        self.applied = False

    def emit(self, time, thread, kind, fields=()):
        if not self.applied and self.algo is not None \
                and self._emits >= self._at_emit:
            self.applied = bool(self._corrupt(self.algo))
        super().emit(time, thread, kind, fields)


def _expect_violation(corrupt, match, variant="upc-distmem", at_emit=40):
    monitor = _Tamper(at_emit, corrupt)
    with pytest.raises(InvariantViolation, match=match):
        run_experiment(
            variant, tree=TreeParams.binomial(b0=32, m=2, q=0.45, seed=1),
            threads=8, preset="kittyhawk", chunk_size=4, tracer=monitor)
    assert monitor.applied  # the violation came from *our* corruption
    return monitor


def test_i1_global_conservation_catches_vanished_node():
    def lose_a_node(algo):
        for stack in algo.stacks:
            if stack.local:
                stack.local.pop()
                return True
        return False

    _expect_violation(lose_a_node, "conservation|ledger")


def test_i2_shared_ledger_catches_corrupt_counter():
    def inflate_released(algo):
        algo.stacks[0].released_nodes += 3
        return True

    _expect_violation(inflate_released, "ledger")


def test_i3_ownership_catches_duplicated_node():
    def duplicate(algo):
        for i, stack in enumerate(algo.stacks):
            if stack.local:
                other = algo.stacks[(i + 1) % len(algo.stacks)]
                other.local.append(stack.local[-1])
                # Keep every ledger consistent (the extra descriptor is
                # "pushed") so only the ownership scan can object.
                other.pushes += 1
                return True
        return False

    _expect_violation(duplicate, "owned twice")


#: The regions the ownership scans walk, in walk order: ranks in
#: order (local region, then shared chunks), then the fault journals.
_WALK = ("T0.local", "T0.shared", "T1.local", "T1.shared",
         "T0.open_transfer", "T1.open_transfer", "T1.response",
         "T0.response")
#: The one descriptor :func:`_placed_monitor` puts in each region.
_HELD = {"T0.local": 2, "T1.shared": 3, "T0.open_transfer": 5,
         "T1.response": 6}


def _placed_monitor(relaxed=False):
    """A monitor over two synthetic stacks and fault journals, with the
    regions of ``_HELD`` filled; returns it and a planter that adds a
    node to a region that starts empty."""
    from types import SimpleNamespace

    from repro.ws.stack import SplitStack

    stacks = [SplitStack(), SplitStack()]
    stacks[0].local[:] = [1, 2]
    stacks[1].shared.append([3, 4])
    transfers, responses = {0: [5]}, {1: [6]}
    monitor = InvariantMonitor()
    monitor.attach_algorithm(SimpleNamespace(
        stacks=stacks, in_flight_nodes=0, dup_extra={},
        multiplicity_relaxed=relaxed,
        machine=SimpleNamespace(faults=SimpleNamespace(
            _open_transfer=transfers, _responses=responses))))
    plant = {"T1.local": stacks[1].local.append,
             "T0.shared": lambda node: stacks[0].shared.append([node]),
             "T1.open_transfer": lambda node: transfers.update({1: [node]}),
             "T0.response": lambda node: responses.update({0: [node]})}
    return monitor, plant


@pytest.mark.parametrize("first", sorted(_HELD))
@pytest.mark.parametrize("second", ["T1.local", "T0.shared",
                                    "T1.open_transfer", "T0.response"])
def test_ownership_scans_reach_every_region(first, second):
    """I3 names both places of a twice-owned node, the earlier in walk
    order first; I3' counts both appearances."""
    node = _HELD[first]
    a, b = sorted((first, second), key=_WALK.index)
    monitor, plant = _placed_monitor()
    plant[second](node)
    with pytest.raises(InvariantViolation, match=re.escape(
            f"node {node} owned twice: {a} and {b}")):
        monitor._scan_ownership(0.0, "steal")
    monitor, plant = _placed_monitor(relaxed=True)
    plant[second](node)
    with pytest.raises(InvariantViolation,
                       match=re.escape(f"node {node} appears 2 time(s)")):
        monitor._scan_ownership(0.0, "steal")


def _bare_monitor():
    """A monitor attached to an empty synthetic run: lock-pairing (I5)
    is checkable without any simulation behind it."""
    from types import SimpleNamespace

    monitor = InvariantMonitor()
    # bound the way every run binds it: attach_algorithm is the one
    # place that sets up the monitor's view of the stacks
    monitor.attach_algorithm(SimpleNamespace(
        stacks=[], in_flight_nodes=0,
        machine=SimpleNamespace(faults=None)))
    return monitor


def test_i5_lock_pairing_catches_unpaired_release():
    with pytest.raises(InvariantViolation, match="released lock"):
        _bare_monitor().emit(0.0, 3, "lock.rel", "stack_lock[0]")


def test_i5_lock_pairing_catches_double_acquire():
    monitor = _bare_monitor()
    monitor.emit(0.0, 1, "lock.acq", "L")
    with pytest.raises(InvariantViolation, match="already"):
        monitor.emit(0.0, 2, "lock.acq", "L")


def test_i5_lock_pairing_catches_theft_by_non_holder():
    monitor = _bare_monitor()
    monitor.emit(0.0, 1, "lock.acq", "L")
    with pytest.raises(InvariantViolation, match="released lock"):
        monitor.emit(1.0, 2, "lock.rel", "L")


def test_i5_death_forgives_corpse_holdings():
    monitor = _bare_monitor()
    monitor.emit(0.0, 1, "lock.acq", "L")
    monitor.emit(1.0, 1, "fault.kill", "T1")  # corpse's lock freed silently
    monitor.emit(2.0, 2, "lock.acq", "L")     # successor may take it
    monitor.emit(3.0, 2, "lock.rel", "L")


def test_check_run_folds_violations_into_outcome():
    """The fuzzer-facing wrapper reports violations, never raises."""
    out = check_run("upc-distmem", b0=32, q=0.45)
    assert out.ok and out.error_type is None


# -- the write barrier: invisible to the schedule, gone after the run ----------

TREE = TreeParams.binomial(b0=64, m=2, q=0.48, seed=1)
BACKENDS = ["pure", pytest.param("fast", marks=pytest.mark.skipif(
    not fp.available(), reason="compiled core not built on this host"))]


def _schedule(result):
    return (result.engine_events, repr(result.sim_time), result.total_nodes,
            [dataclasses.asdict(st) | {"timer": None}
             for st in result.per_thread],
            [(st.timer.times, st.timer.transitions)
             for st in result.per_thread])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("idle", ["poll", "park"])
@pytest.mark.parametrize("variant", sorted(ALGORITHMS))
def test_monitored_run_executes_the_unmonitored_schedule(
        variant, idle, backend, monkeypatch):
    if backend == "fast":
        monkeypatch.delenv("REPRO_FASTPATH", raising=False)
    kw = dict(tree=TREE, threads=8, fastpath=backend,
              config=WsConfig(chunk_size=4, idle_strategy=idle))
    plain = run_experiment(variant, **kw)
    monitor = InvariantMonitor()
    watched = run_experiment(variant, tracer=monitor, **kw)
    # before final_check: the barrier is still on every stack
    assert all(type(s) is not SplitStack for s in monitor.algo.stacks)
    monitor.final_check()
    assert _schedule(watched) == _schedule(plain)
    assert monitor.ledger_rechecks > 0


def test_a_stack_outliving_its_monitor_is_a_plain_stack_again():
    monitor = InvariantMonitor()
    run_experiment("ws-fencefree", tree=TREE, threads=4, tracer=monitor)
    stacks = monitor.algo.stacks
    assert all(isinstance(s, SplitStack) and type(s) is not SplitStack
               for s in stacks)
    monitor.final_check()
    assert all(type(s) is SplitStack for s in stacks)
    before = monitor.ledger_rechecks
    stacks[0].push(0)
    stacks[0].pops += 1
    assert monitor._dirty == set() and monitor.ledger_rechecks == before


def test_barrier_classes_do_not_pile_up():
    """One barrier class per attach; none may outlive its monitor."""
    gc.collect()
    before = len(SplitStack.__subclasses__())
    for _ in range(30):
        monitor = InvariantMonitor()
        run_experiment("upc-distmem", tree=TreeParams.binomial(
            b0=4, m=2, q=0.3, seed=1), threads=2, tracer=monitor)
        monitor.final_check()
    del monitor
    gc.collect()
    assert len(SplitStack.__subclasses__()) == before
