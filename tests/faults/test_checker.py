"""The in-simulation conservation checker must catch real corruption.

A checker that never fires is indistinguishable from no checker; these
tests corrupt the ledger on purpose -- both statically and live,
mid-simulation -- and demand a loud :class:`ProtocolError`.
"""

import pytest

from repro import run_experiment
from repro.errors import ProtocolError
from repro.faults import FaultPlan
from repro.faults.runtime import FaultRuntime
from repro.net import get_preset
from repro.pgas import Machine
from repro.sim.engine import Timeout
from repro.uts.tree import Tree
from repro.ws.algorithms import get_algorithm
from repro.ws.config import WsConfig

from tests.faults.conftest import TREE


def _setup(threads=4):
    """Machine + runtime + algorithm wired exactly like run_experiment."""
    plan = FaultPlan(check_period=20e-6)
    machine = Machine(threads=threads, net=get_preset("kittyhawk"))
    rt = FaultRuntime(plan, machine)
    machine.faults = rt
    algo = get_algorithm("upc-distmem")(
        machine, Tree(TREE), WsConfig(chunk_size=4, faults=plan))
    rt.attach(algo)
    return machine, rt, algo


class TestStaticLedger:
    def test_clean_state_passes(self):
        _, rt, _ = _setup()
        rt.check_conservation()
        assert rt.counters.invariant_checks == 1

    def test_phantom_node_detected(self):
        _, rt, algo = _setup()
        # A node appears on a stack with no matching push: conjured work.
        algo.stacks[2].local.append(algo.tree.root())
        with pytest.raises(ProtocolError, match="conservation violated"):
            rt.check_conservation()

    def test_vanished_node_detected(self):
        _, rt, algo = _setup()
        # The seeded root vanishes with no matching pop: lost work.
        algo.stacks[0].local.clear()
        with pytest.raises(ProtocolError, match="conservation violated"):
            rt.check_conservation()

    def test_negative_in_flight_detected(self):
        _, rt, algo = _setup()
        algo.in_flight_nodes = -1
        with pytest.raises(ProtocolError, match="negative"):
            rt.check_conservation()

    def test_accounted_loss_passes(self):
        _, rt, algo = _setup()
        # The same vanishing, but properly journalled as a fail-stop
        # loss: the ledger must accept it.
        orphans = list(algo.stacks[0].local)
        algo.stacks[0].local.clear()
        rt.account_lost(orphans, on_stack=True)
        rt.check_conservation()


class TestLiveChecker:
    def test_mid_run_corruption_aborts_simulation(self):
        machine, rt, algo = _setup()

        def corruptor(ctx):
            yield Timeout(60e-6)
            # Steal a node out of a victim's stack without touching
            # any counter: exactly what a protocol bug would do.
            for stack in algo.stacks:
                if stack.local:
                    stack.local.pop()
                    return

        machine.spawn_all(algo.guarded_main)
        machine.sim.spawn(corruptor(machine.contexts[0]), name="corruptor")
        rt.start()
        with pytest.raises(ProtocolError, match="conservation violated"):
            machine.run()

    def test_clean_run_checks_repeatedly(self):
        machine, rt, algo = _setup()
        machine.spawn_all(algo.guarded_main)
        rt.start()
        machine.run()
        # check_period=20us over a multi-hundred-us run: many checks.
        assert rt.counters.invariant_checks > 5


@pytest.mark.xfail(strict=True, reason=(
    "the checker and heartbeat loops hold a faulted run open until "
    "their first tick after the last worker exits (ROADMAP item 1)"))
def test_sim_time_does_not_depend_on_check_period():
    def sim_time(period):
        return run_experiment(
            "upc-distmem", tree=TREE, threads=4, chunk_size=4,
            preset="kittyhawk",
            faults=FaultPlan(check_period=period)).sim_time

    assert sim_time(20e-6) == sim_time(FaultPlan().check_period)
