"""One run loop, whole matrix.

``Simulator.run`` is the only Python dispatch loop; the queue backend,
the tie-break policy and the deadline are its parameters.  This file
pins that every combination of them executes one schedule:

* every variant x queue in {heap, bucket} x tie_break in {None,
  identity} x {one-shot ``run()``, segmented ``run(until=)``} agrees on
  engine events, simulated time and every per-thread counter;
* the loop's three edge contracts -- the exact event budget, the
  uncounted stale resumption, the push-back of an event beyond the
  deadline -- hold on both queues, with and without a deadline or a
  policy.

(Process soups dense in same-timestamp ties are property-tested against
both queues in ``test_equeue.py``; arbitrary segment cuts in
``tests/check/test_engine_equivalence.py``.)
"""

import dataclasses

import pytest

from repro.check.tiebreak import FifoTieBreak
from repro.errors import EventLimitExceeded
from repro.harness.runner import tree_for
from repro.net.presets import get_preset
from repro.pgas.machine import Machine
from repro.sim import Simulator, Timeout
from repro.uts.params import TreeParams
from repro.ws.algorithms import ALGORITHMS
from repro.ws.config import WsConfig

TREE = TreeParams.binomial(b0=64, m=2, q=0.48, seed=1)

QUEUES = ["heap", "bucket"]
POLICIES = {"fifo": lambda: None, "identity": FifoTieBreak}


def _schedule(variant, queue, policy, segmented):
    """Run one cell on the pure engine; return everything a schedule
    difference would move."""
    machine = Machine(threads=8, net=get_preset("kittyhawk"), seed=0,
                      queue=queue, tie_break=POLICIES[policy](),
                      fastpath="pure")
    algo = ALGORITHMS[variant](machine, tree_for(TREE),
                               WsConfig(chunk_size=4))
    machine.spawn_all(algo.thread_main)
    sim = machine.sim
    if segmented:
        # Fixed-width segments: most deadlines fall between events (the
        # pop / push-back path), and resumption re-enters the loop with
        # the queue mid-flight.
        while sim.queue_size:
            sim.run(until=sim.now + 37e-6)
        sim.check_quiescent()
    else:
        machine.run()
    algo.finalize()
    per_thread = [
        (dataclasses.asdict(st) | {"timer": None}, st.timer.times,
         st.timer.transitions)
        for st in algo.stats
    ]
    return sim.events_processed, sim.now, algo.total_nodes, per_thread


@pytest.mark.parametrize("variant", sorted(ALGORITHMS))
def test_every_path_executes_one_schedule(variant):
    reference = _schedule(variant, "heap", "fifo", segmented=False)
    assert reference[2] == 3009
    for queue in QUEUES:
        for policy in POLICIES:
            for segmented in (False, True):
                got = _schedule(variant, queue, policy, segmented)
                assert got == reference, (
                    f"{variant}: queue={queue} tie_break={policy} "
                    f"segmented={segmented} diverged from the heap/FIFO "
                    f"one-shot schedule")


# -- edge contracts of the loop, on every path ---------------------------------

PATHS = [(q, p, d) for q in QUEUES for p in POLICIES
         for d in ("oneshot", "deadline")]
PATH_IDS = [f"{q}-{p}-{d}" for q, p, d in PATHS]


def _sim(queue, policy, **kwargs):
    return Simulator(queue=queue, tie_break=POLICIES[policy](), **kwargs)


@pytest.mark.parametrize("queue,policy,deadline", PATHS, ids=PATH_IDS)
def test_event_budget_is_exact(queue, policy, deadline):
    """``max_events=N`` dispatches exactly N events; the N+1-th raises.

    Pins the budget semantics (an off-by-one here would silently shift
    every livelock diagnostic by one event).
    """
    sim = _sim(queue, policy, max_events=10)

    def spinner():
        while True:
            yield Timeout(1.0)

    sim.spawn(spinner())
    with pytest.raises(EventLimitExceeded):
        sim.run(until=100.0 if deadline == "deadline" else None)
    assert sim.events_processed == 10


@pytest.mark.parametrize("queue,policy,deadline", PATHS, ids=PATH_IDS)
def test_stale_resumption_is_dropped_uncounted(queue, policy, deadline):
    """An interrupted process's pending wake-up is skipped: it must not
    advance the clock or count against the event budget."""
    sim = _sim(queue, policy)
    log = []

    def victim():
        try:
            yield Timeout(5.0)
        finally:
            log.append("dead")

    def killer(proc):
        yield Timeout(1.0)
        sim.interrupt(proc, RuntimeError("kill"))

    p = sim.spawn(victim())
    sim.spawn(killer(p))
    # The stale t=5 wake-up never runs the clock.
    assert sim.run(until=10.0 if deadline == "deadline" else None) == 1.0
    assert log == ["dead"]
    assert not p.alive
    # victim start + killer start + killer wake-up = 3 dispatches; the
    # victim's t=5 resumption is stale and uncounted.
    assert sim.events_processed == 3
    sim.check_quiescent()


@pytest.mark.parametrize("queue", QUEUES)
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_deadline_pushes_back_the_unconsumed_event(queue, policy):
    """The loop pops an event before it can see the deadline; one lying
    beyond ``until`` goes back unconsumed and uncounted -- same record,
    same key -- so the next segment dispatches it in its original order
    among its same-timestamp peers."""
    sim = _sim(queue, policy)
    log = []

    def proc(name):
        yield Timeout(2.0)
        log.append((sim.now, name))

    for name in "abc":
        sim.spawn(proc(name))
    assert sim.run(until=1.0) == 1.0
    assert log == [] and sim.queue_size == 3
    assert sim.events_processed == 3  # the three first steps only
    # A deadline landing exactly on the events consumes them, in spawn
    # order despite the pop / push-back of the first one above.
    assert sim.run(until=2.0) == 2.0
    assert log == [(2.0, "a"), (2.0, "b"), (2.0, "c")]
    assert sim.events_processed == 6
    assert sim.run() == 2.0
