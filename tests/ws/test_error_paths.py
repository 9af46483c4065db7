"""The stack's three loud failures, exercised through the full stack.

Every termination-protocol bug in this package is supposed to surface
as one of three exceptions rather than a silent wrong count: a
simulation that can never finish (:class:`DeadlockError`), one that
never stops generating events (:class:`EventLimitExceeded`), and a
soundness-oracle violation (:class:`ProtocolError` from
``quiescence_check`` / ``finalize`` / ``RunResult.verify``).  These
tests pin each path down.
"""

import pytest

from repro.errors import DeadlockError, EventLimitExceeded, ProtocolError
from repro.harness.runner import expected_node_count, run_experiment
from repro.net import NetworkModel
from repro.pgas import Machine
from repro.sim.engine import SimEvent
from repro.uts.params import TreeParams
from repro.uts.tree import Tree
from repro.ws.algorithms import get_algorithm
from repro.ws.config import WsConfig

TREE = TreeParams.binomial(b0=40, q=0.4, seed=3)


def _machine(threads=4):
    net = NetworkModel(cores_per_node=1, remote_shared_ref=1.0,
                       lock_overhead=2.0, home_occupancy=0.1)
    return Machine(threads=threads, net=net)


def _algo(name="upc-distmem", threads=4):
    machine = _machine(threads)
    return get_algorithm(name)(machine, Tree(TREE), WsConfig(chunk_size=2))


class TestEventLimitExceeded:
    """A starved event budget aborts the run instead of spinning."""

    @pytest.mark.parametrize("algorithm", ["upc-distmem", "mpi-ws",
                                           "upc-sharedmem"])
    def test_tiny_budget_surfaces_through_run_experiment(self, algorithm):
        with pytest.raises(EventLimitExceeded, match="livelocked"):
            run_experiment(algorithm, tree=TREE, threads=4,
                           preset="kittyhawk", chunk_size=2, max_events=50)

    def test_default_budget_is_ample(self):
        res = run_experiment("upc-distmem", tree=TREE, threads=4,
                             preset="kittyhawk", chunk_size=2, verify=True)
        assert res.engine_events < 50_000_000


class TestDeadlockError:
    """Threads blocked forever fail loudly when the heap drains."""

    def test_wait_on_never_fired_event(self):
        machine = _machine()
        ev = SimEvent(machine.sim, name="never-fired")

        def stuck(ctx):
            yield ev

        machine.spawn_all(stuck)
        with pytest.raises(DeadlockError, match="blocked forever"):
            machine.run()

    def test_lock_held_forever_starves_waiters(self):
        machine = _machine(threads=2)
        locks = machine.lock_array("L")

        def holder(ctx):
            yield from ctx.lock(locks[0])
            # exits still holding locks[0]

        def waiter(ctx):
            yield from ctx.lock(locks[0])

        machine.sim.spawn(holder(machine.contexts[0]), name="T0")
        machine.sim.spawn(waiter(machine.contexts[1]), name="T1")
        with pytest.raises(DeadlockError):
            machine.run()


class TestProtocolOracles:
    """The base-algorithm soundness checks reject corrupted state."""

    def test_quiescence_check_rejects_nonempty_stack(self):
        algo = _algo()
        # The constructor seeds the root into T0's stack; a declaration
        # right now is premature and the oracle must say whose fault.
        with pytest.raises(ProtocolError, match="T0 holds 1 unprocessed"):
            algo.quiescence_check()
        algo.stacks[0].local.clear()
        algo.quiescence_check()  # drained state passes
        algo.stacks[2].push(algo.tree.root())
        with pytest.raises(ProtocolError, match="T2 holds 1 unprocessed"):
            algo.quiescence_check()

    def test_quiescence_check_rejects_in_flight_nodes(self):
        algo = _algo()
        algo.stacks[0].local.clear()
        algo.in_flight_nodes = 3
        with pytest.raises(ProtocolError, match="3 node\\(s\\) in flight"):
            algo.quiescence_check()

    def test_finalize_rejects_leftover_work(self):
        algo = _algo()
        algo.stacks[0].local.clear()
        algo.stacks[1].push(algo.tree.root())
        with pytest.raises(ProtocolError, match=r"stack of T1 non-empty "
                           r"after termination \(1 node"):
            algo.finalize()

    def test_verify_rejects_wrong_count(self):
        res = run_experiment("upc-distmem", tree=TREE, threads=2,
                             preset="kittyhawk", chunk_size=4)
        expected = expected_node_count(TREE)
        res.verify(expected)  # the true oracle passes
        with pytest.raises(ProtocolError, match="provably lost"):
            res.verify(expected + 1)
