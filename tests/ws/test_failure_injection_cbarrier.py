"""Failure injection for the cancelable barrier (upc-sharedmem).

The safety rule under test: a *cancelled* waiter must decrement the
barrier count **before** resuming its search.  If it steals first
(while still counted), the count can reach THREADS with its stolen
chunk in flight and the barrier declares termination over a live
system.

We script that exact interleaving with the real protocol pieces and a
deliberately slow transfer link, and assert the quiescence oracle
turns it into a ProtocolError.  The correct `enter_and_wait` (which
decrements under lock before returning) passes the same scenario.
"""

import pytest

from repro.errors import ProtocolError
from repro.net import NetworkModel
from repro.pgas import Machine
from repro.uts.params import TreeParams
from repro.uts.tree import Tree
from repro.ws.algorithms.lock_based import UpcSharedMem
from repro.ws.config import WsConfig

SLOW_NET = NetworkModel(cores_per_node=1, node_visit_time=1 / 2e6,
                        remote_shared_ref=4e-6, rdma_latency=5e-3,
                        rdma_bandwidth=1e4, lock_overhead=8e-6)

TREE = TreeParams.binomial(b0=8, m=2, q=0.4, seed=1)


def release(algo, ctx):
    """The owner's release of one chunk, under its own-stack lock: move
    it local -> shared, advertise, unlock, then the termination
    policy's after-release hook."""
    rank = ctx.rank
    lk = algo.stack_locks[rank]
    yield from ctx.lock(lk)
    algo.stacks[rank].release(algo.cfg.chunk_size)
    algo._advertise(rank, algo.stacks[rank].shared_chunks)
    yield from ctx.unlock(lk)
    yield from algo.after_release(ctx)


def _build():
    machine = Machine(threads=3, net=SLOW_NET)
    algo = UpcSharedMem(machine, Tree(TREE), WsConfig(chunk_size=1))
    victim = 2
    # The victim holds enough local work to release one chunk; nobody
    # else has anything.
    algo.stacks[0].local.clear()
    algo.work_avail[0].poke(-1)
    node = Tree(TREE).root()
    algo.stacks[victim].push_many([node, node])
    return machine, algo, victim


def test_oracle_catches_steal_before_decrement():
    machine, algo, victim = _build()
    barrier = algo.barrier

    def buggy_waiter(ctx):
        # Enter the barrier (counted), wait for the cancellation...
        yield from ctx.lock(barrier.lock)
        barrier.count += 1
        yield from ctx.unlock(barrier.lock)
        ev = machine.sim.event(f"waiter.T{ctx.rank}")
        barrier._waiters.append((ctx.rank, ev))
        outcome = yield ev
        assert outcome == "cancelled"
        # BUG: steal right away, still counted in the barrier.
        ok = yield from algo.try_steal(ctx, victim)
        # (Never reached before the oracle fires: the victim enters the
        # barrier during our glacial chunk transfer.)
        yield from ctx.lock(barrier.lock)
        barrier.count -= 1
        yield from ctx.unlock(barrier.lock)

    def victim_main(ctx):
        # Release surplus: resets (cancels) the barrier, waking waiters.
        yield from release(algo, ctx)
        algo.work_avail[ctx.rank].poke(-1)
        # Exhaust immediately and enter the barrier: with both waiters
        # still counted, count == THREADS -> termination declared.
        yield from ctx.compute(50e-6)
        algo.stacks[ctx.rank].local.clear()
        yield from barrier.enter_and_wait(ctx)

    machine.sim.spawn(buggy_waiter(machine.contexts[0]))
    machine.sim.spawn(buggy_waiter(machine.contexts[1]))
    machine.sim.spawn(victim_main(machine.contexts[victim]))
    with pytest.raises(ProtocolError, match="in flight|unprocessed"):
        machine.run()


def test_correct_barrier_survives_same_scenario():
    """With the real enter_and_wait (decrement-before-search), the same
    interleaving terminates cleanly and conserves every node."""
    machine, algo, victim = _build()
    barrier = algo.barrier
    stolen_then_done = []

    def proper_waiter(ctx):
        while True:
            done = yield from barrier.enter_and_wait(ctx)
            if done:
                return
            # Cancelled (already decremented): search once.
            ok = yield from algo.try_steal(ctx, victim)
            if ok:
                # Drain the stolen chunk, then go idle again.
                st = algo.stacks[ctx.rank]
                algo.stats[ctx.rank].nodes_visited += st.local_size
                st.local.clear()
                algo.work_avail[ctx.rank].poke(-1)

    def victim_main(ctx):
        yield from release(algo, ctx)
        algo.work_avail[ctx.rank].poke(-1)
        yield from ctx.compute(50e-6)
        st = algo.stacks[ctx.rank]
        algo.stats[ctx.rank].nodes_visited += st.local_size
        st.local.clear()
        while True:
            done = yield from barrier.enter_and_wait(ctx)
            if done:
                return

    machine.sim.spawn(proper_waiter(machine.contexts[0]))
    machine.sim.spawn(proper_waiter(machine.contexts[1]))
    machine.sim.spawn(victim_main(machine.contexts[victim]))
    machine.run()
    assert barrier.terminated
    # Every parked node was drained by someone.
    assert all(s.is_empty for s in algo.stacks)
    assert algo.in_flight_nodes == 0
