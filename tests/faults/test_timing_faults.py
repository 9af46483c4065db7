"""Timing faults (stalls, stale reads, slow threads) only cost time.

None of these faults destroys work -- they stretch critical sections,
let probes read outdated ``work_avail`` values, or slow a rank's
compute -- so every algorithm still owes the exact sequential count,
and the run can only get *slower*, never wrong.
"""

import pytest

from repro import ALGORITHMS
from repro.faults import parse_fault_spec
from repro.harness.runner import expected_node_count, run_experiment
from repro.net import get_preset

from tests.faults.conftest import TREE, fingerprint

ALGOS = ["mpi-ws", "upc-distmem", "upc-distmem-hier", "upc-sharedmem",
         "upc-term", "upc-term-rapdif"]


@pytest.mark.parametrize("algorithm", ALGOS)
def test_stall_and_stale_exact_oracle(algorithm):
    plan = parse_fault_spec("stall=0.3,stale=0.3", seed=13)
    res = run_experiment(algorithm, tree=TREE, threads=8,
                         preset="kittyhawk", chunk_size=4, verify=True,
                         faults=plan)
    assert res.total_nodes == expected_node_count(TREE)
    assert res.lost_work == 0


def test_lock_stalls_counted_and_slow():
    spec_off = "stall=0.0,stall-time=200us"
    spec_on = "stall=0.9,stall-time=200us"
    base = run_experiment("upc-sharedmem", tree=TREE, threads=8,
                          preset="kittyhawk", chunk_size=4, verify=True,
                          faults=parse_fault_spec(spec_off, seed=2))
    hit = run_experiment("upc-sharedmem", tree=TREE, threads=8,
                         preset="kittyhawk", chunk_size=4, verify=True,
                         faults=parse_fault_spec(spec_on, seed=2))
    assert base.fault_counters.lock_stalls == 0
    assert hit.fault_counters.lock_stalls > 0
    # Stalls stretch every contended critical section.
    assert hit.sim_time > base.sim_time
    assert hit.total_nodes == base.total_nodes == expected_node_count(TREE)


def test_stale_windows_open_and_resolve():
    # Default 20us window: long enough that probes land inside it,
    # short enough that progress is not throttled.  (Windows on the
    # order of the probe backoff -- 40us and up here -- stay correct
    # but slow the search by orders of magnitude; see
    # docs/fault-model.md.)
    res = run_experiment("upc-distmem", tree=TREE, threads=8,
                         preset="kittyhawk", chunk_size=4, verify=True,
                         faults=parse_fault_spec("stale=0.5", seed=4))
    c = res.fault_counters
    assert c.stale_windows > 0
    # Some probe actually read through an open window.
    assert c.stale_reads > 0
    assert res.total_nodes == expected_node_count(TREE)


def test_mutual_thief_stale_read_deadlock_regression():
    # This exact cell (fault matrix, seed=1) once deadlocked: two
    # thieves stale-read avail > 0 on *each other*, both wrote requests
    # and blocked on the other's response, and a blocked thief never
    # serviced its own request slot.  try_steal's deny-while-waiting
    # loop (faulted runs only) breaks the cycle; fault-free runs cannot
    # form it because a requester's own work_avail is a fresh NO_WORK.
    plan = parse_fault_spec("stall=0.3,stale=0.2", seed=1)
    res = run_experiment("upc-distmem", tree=TREE, threads=8,
                         preset="kittyhawk", chunk_size=4, verify=True,
                         faults=plan)
    assert res.total_nodes == expected_node_count(TREE)
    assert res.lost_work == 0


def test_slow_ranks_stretch_the_run():
    base = run_experiment("upc-distmem", tree=TREE, threads=8,
                          preset="kittyhawk", chunk_size=4, verify=True,
                          faults=parse_fault_spec("stall=0.0", seed=6))
    slow = run_experiment("upc-distmem", tree=TREE, threads=8,
                          preset="kittyhawk", chunk_size=4, verify=True,
                          faults=parse_fault_spec("slow=2@8,slow=5@8",
                                                  seed=6))
    assert slow.total_nodes == expected_node_count(TREE)
    assert slow.sim_time > base.sim_time


# -- every variant: faulted and fault-free runs share one working phase ------

#: One spec item per timing-fault class; a variant gets the items its
#: ``fault_classes`` accept (tree-split and ws-fencefree: stale only).
TIMING_ITEMS = {"stall": "stall=0.3", "stale": "stale=0.3", "slow": "slow=3@2"}
#: Variants that move chunks under their own lock, so a release stalls.
LOCK_STALLS = {"upc-distmem", "upc-distmem-hier", "upc-sharedmem",
               "upc-term", "upc-term-rapdif"}
#: Variants whose probes read a staleable ``work_avail``.
STALE_READS = LOCK_STALLS | {"ws-fencefree"}


def _timing_plan(variant):
    accepted = ALGORITHMS[variant].fault_classes or tuple(TIMING_ITEMS)
    return parse_fault_spec(",".join(
        item for cls, item in TIMING_ITEMS.items() if cls in accepted),
        seed=5)


@pytest.mark.parametrize("chunk_size", [2, 4])
@pytest.mark.parametrize("variant", sorted(ALGORITHMS))
def test_every_variant_keeps_every_node_under_its_timing_faults(
        variant, chunk_size):
    plan = _timing_plan(variant)

    def run():
        return run_experiment(variant, tree=TREE, threads=8,
                              chunk_size=chunk_size, verify=True,
                              faults=plan)

    res = run()
    assert res.lost_work == 0
    c = res.fault_counters
    # Each fault lands where the variant has the site for it, and only
    # there: own-lock releases stall, remote probes read stale values.
    assert (c.lock_stalls > 0) == (variant in LOCK_STALLS)
    assert (c.stale_reads > 0) == (variant in STALE_READS)
    assert fingerprint(run()) == fingerprint(res)


@pytest.mark.parametrize("variant", sorted(
    v for v, cls in ALGORITHMS.items() if cls.fault_classes is None))
def test_a_slow_rank_pays_its_factor_on_every_visit(variant):
    # One thread, so the schedule cannot shift: a factor-3 rank's
    # working time exceeds the fault-free run's by exactly 2 visits'
    # cost per node, and a factor-1 rank's matches it.
    def working(**kw):
        res = run_experiment(variant, tree=TREE, threads=1, chunk_size=4,
                             **kw)
        return res.per_thread[0].timer.times["working"], res.total_nodes

    clean, nodes = working()
    slow, _ = working(faults=parse_fault_spec("slow=0@3", seed=5))
    unit, _ = working(faults=parse_fault_spec("slow=0@1", seed=5))
    assert unit == clean
    t_node = get_preset("kittyhawk").node_visit_time
    assert slow - clean == pytest.approx(2 * nodes * t_node, rel=1e-9)
