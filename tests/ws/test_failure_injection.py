"""Failure injection: prove the quiescence oracle catches real bugs.

The streamlined termination protocol's subtle rule is
*leave-before-steal*: an in-barrier thread that spots surplus must
decrement the barrier count **before** requesting the steal, so the
count can never certify termination while stolen work is in flight.

Here we deliberately violate that rule and script the exact race:

1. Ranks 0..T-2 sit in the **buggy** barrier loop (steal while
   counted).
2. The victim (rank T-1) holds one stealable chunk; a counted thief
   requests it; the victim grants -- the chunk is now in flight on a
   deliberately glacial link -- and immediately enters the barrier.
3. The count reaches THREADS while the chunk is mid-transfer.

The quiescence oracle must raise ProtocolError at step 3; and the
*correct* protocol, run on the same slow network across many seeds,
must never trip it.
"""

import pytest

from repro.errors import ProtocolError
from repro.metrics.states import BARRIER
from repro.net import NetworkModel
from repro.pgas import Machine
from repro.sim.engine import Timeout
from repro.uts.params import TreeParams
from repro.uts.sequential import count_tree
from repro.uts.tree import Tree
from repro.ws.algorithms.distmem import UpcDistMem
from repro.ws.config import BARRIER_POLL_MAX, BARRIER_POLL_MIN, WsConfig

#: Glacial chunk transfers widen the in-flight window.
SLOW_NET = NetworkModel(cores_per_node=1, node_visit_time=1 / 2e6,
                        remote_shared_ref=4e-6, rdma_latency=5e-3,
                        rdma_bandwidth=1e4, lock_overhead=8e-6)

TREE = TreeParams.binomial(b0=12, m=2, q=0.47, seed=0)


class BuggyDistMem(UpcDistMem):
    """upc-distmem with the leave-before-steal rule removed."""

    name = "buggy-distmem"

    def termination_phase(self, ctx):
        st = self.stats[ctx.rank]
        st.barrier_entries += 1
        self.enter_state(ctx, BARRIER)
        last = yield from self.barrier.enter(ctx)
        if last:
            self.quiescence_check()
            yield from self.barrier.announce(ctx)
            return True
        poll = BARRIER_POLL_MIN
        order = self.probe_orders[ctx.rank]
        while True:
            yield from self.barrier_service_hook(ctx)
            if self.barrier.terminated:
                return True
            victim = order.one()
            if self.work_avail[victim].value > 0:
                # BUG: steal while still counted in the barrier.
                ok = yield from self.try_steal(ctx, victim)
                if ok:
                    yield from self.barrier.leave(ctx)
                    st.barrier_exits += 1
                    return False
            yield from ctx.compute(poll)
            poll = min(poll * 2.0, BARRIER_POLL_MAX)


def _scripted_race(algo_cls):
    """Drive the barrier race directly; returns the machine (call
    ``machine.run()`` to play it out)."""
    threads = 3
    machine = Machine(threads=threads, net=SLOW_NET, seed=0)
    algo = algo_cls(machine, Tree(TREE), WsConfig(chunk_size=1))
    victim = threads - 1

    # The victim holds one stealable chunk; everyone else is idle.
    algo.stacks[0].local.clear()  # discard the seeded root
    algo.work_avail[0].poke(-1)
    node = Tree(TREE).root()
    algo.stacks[victim].push(node)
    algo.stacks[victim].release(1)
    algo.work_avail[victim].poke(1)

    def thief_main(ctx):
        done = yield from algo.termination_phase(ctx)
        if not done:
            # Work obtained; drain it so the run can end.
            algo.stacks[ctx.rank].local.clear()
            algo.stats[ctx.rank].nodes_visited += 1
            done = yield from algo.termination_phase(ctx)

    def victim_main(ctx):
        # Wait for a thief's request, grant it (chunk goes in flight),
        # then march straight into the barrier.
        while algo.request[victim].value is None:
            yield Timeout(1e-6)
        yield from algo.service_request(ctx)
        algo.work_avail[victim].poke(-1)
        last = yield from algo.barrier.enter(ctx)
        if last:
            algo.quiescence_check()
            yield from algo.barrier.announce(ctx)
        else:
            yield from algo.termination_phase(ctx)

    for rank in range(victim):
        machine.sim.spawn(thief_main(machine.contexts[rank]))
    machine.sim.spawn(victim_main(machine.contexts[victim]))
    return machine


def test_oracle_catches_leave_before_steal_violation():
    machine = _scripted_race(BuggyDistMem)
    with pytest.raises(ProtocolError, match="in flight"):
        machine.run()


def test_correct_protocol_never_trips_oracle():
    """The unmodified distmem on the same slow network, end to end,
    across seeds: the oracle stays silent and counts stay exact."""
    expected = count_tree(TREE).n_nodes
    for sim_seed in range(5):
        machine = Machine(threads=5, net=SLOW_NET, seed=sim_seed,
                          max_events=3_000_000)
        algo = UpcDistMem(machine, Tree(TREE), WsConfig(chunk_size=1))
        machine.spawn_all(algo.thread_main)
        machine.run()
        algo.finalize()
        assert algo.total_nodes == expected
