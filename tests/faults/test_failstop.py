"""Fail-stop faults: lost work must be accounted *exactly*.

A killed thread destroys the node descriptors on its stack and any
transfer caught in its generator frame.  Those nodes were never
expanded, so their subtrees are disjoint and ``lost_work`` (the DFS
size under every lost descriptor) is exactly the gap to the sequential
oracle: ``total_nodes + lost_work == expected``.  ``verify=True``
asserts that identity inside :func:`run_experiment` for every test
here; the tests then pin down the counters around it.
"""

import pytest

from repro.errors import ConfigError
from repro.faults import FaultPlan, parse_fault_spec
from repro.harness.runner import expected_node_count, run_experiment
from repro.obs.sink import TraceSink
from repro.uts.params import TreeParams

from tests.faults.conftest import TREE

ALGOS = ["mpi-ws", "upc-distmem", "upc-distmem-hier", "upc-sharedmem",
         "upc-term", "upc-term-rapdif"]


@pytest.mark.parametrize("algorithm", ALGOS)
def test_two_kills_exact_accounting(algorithm):
    plan = parse_fault_spec("kill=3@50us,kill=5@120us", seed=11)
    res = run_experiment(algorithm, tree=TREE, threads=8,
                         preset="kittyhawk", chunk_size=4, verify=True,
                         faults=plan)
    expected = expected_node_count(TREE)
    assert res.total_nodes + res.lost_work == expected
    c = res.fault_counters
    assert c.threads_killed == 2
    assert c.lost_work == res.lost_work
    # lost_nodes counts descriptors, lost_work whole subtrees.
    assert c.lost_work >= c.lost_nodes
    # The survivors still found the rest of the tree.
    assert res.total_nodes > 0


def test_kill_before_first_instruction():
    # t=0 kill: the watchdog accounts the thread even though its body
    # never ran a ThreadKilled handler.
    plan = parse_fault_spec("kill=2@0s", seed=3)
    res = run_experiment("upc-distmem", tree=TREE, threads=4,
                         preset="kittyhawk", chunk_size=4, verify=True,
                         faults=plan)
    assert res.fault_counters.threads_killed == 1
    assert res.total_nodes + res.lost_work == expected_node_count(TREE)


def test_heartbeat_suspicion_fires_for_dead_victims():
    # mpi-ws keeps routing (token ring, victim picks) through the
    # failure detector, so with half the machine dead the survivors
    # must suspect the corpses before they can finish.  (The one-sided
    # algorithms can finish without suspicion: a corpse's work_avail is
    # poked to NO_WORK at death, so probes route around it for free.)
    plan = parse_fault_spec("kill=1@30us,kill=2@30us", seed=5)
    res = run_experiment("mpi-ws", tree=TREE, threads=4,
                         preset="kittyhawk", chunk_size=2, verify=True,
                         faults=plan)
    c = res.fault_counters
    assert c.threads_killed == 2
    assert c.heartbeat_suspicions >= 1


def test_kill_rank_beyond_machine_rejected():
    plan = FaultPlan(kill_ranks=(9,), kill_times=(1e-3,))
    with pytest.raises(ConfigError, match="rank 9"):
        run_experiment("upc-distmem", tree=TREE, threads=4,
                       preset="kittyhawk", chunk_size=4, faults=plan)


def test_late_kill_after_completion_is_harmless():
    # Kill scheduled long after the search drains: the watchdog sees
    # no live threads and stands down without accounting a death.
    plan = parse_fault_spec("kill=3@10s", seed=1)
    res = run_experiment("mpi-ws", tree=TREE, threads=8,
                         preset="kittyhawk", chunk_size=4, verify=True,
                         faults=plan)
    assert res.fault_counters.threads_killed == 0
    assert res.total_nodes == expected_node_count(TREE)
    assert res.lost_work == 0


def test_an_owner_killed_in_its_own_lock_stall_passes_the_lock_on():
    # At 526 us rank 2 is sleeping through a lock-holder stall on its
    # own stack lock (the Working state's lock bracket, uncontended).
    # The bracket records the holder, so the death frees the lock; a
    # corpse that kept it would leave the next thief to lock that
    # stack waiting forever while the rest poll (a livelock, which
    # ``max_events`` turns into a prompt failure).
    tree = TreeParams.binomial(b0=64, m=2, q=0.48, seed=1)
    sink = TraceSink()
    res = run_experiment("upc-sharedmem", tree=tree, threads=8,
                         chunk_size=2, verify=True, tracer=sink,
                         faults=parse_fault_spec(
                             "stall=0.2,kill=2@526.076us", seed=0),
                         max_events=100_000)
    assert res.fault_counters.threads_killed == 1
    assert res.total_nodes + res.lost_work == expected_node_count(tree)
    last = [ev.kind if ev.kind != "lock.acq" else ev.fields[0]
            for ev in sink.events() if ev.rank == 2
            and ev.kind in ("lock.acq", "lock.rel", "fault.stall",
                            "fault.kill")][-3:]
    assert last == ["stack_lock[2]", "fault.stall", "fault.kill"]
