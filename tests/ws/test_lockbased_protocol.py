"""Focused tests of the lock-based (upc-sharedmem family) machinery."""

import pytest

from repro import TreeParams, run_experiment
from repro.net import KITTYHAWK
from repro.pgas import Machine
from repro.uts.tree import Tree
from repro.ws.algorithms import get_algorithm
from repro.ws.config import WsConfig

TREE = TreeParams.binomial(b0=100, m=2, q=0.49, seed=0)


def build(alg, threads=8, k=4):
    machine = Machine(threads=threads, net=KITTYHAWK, seed=0)
    algo = get_algorithm(alg)(machine, Tree(TREE), WsConfig(chunk_size=k))
    machine.spawn_all(algo.thread_main)
    machine.run()
    algo.finalize()
    return algo


def test_stack_locks_used_and_released():
    algo = build("upc-term")
    assert any(lk.acquisitions > 0 for lk in algo.stack_locks)
    assert all(not lk.fifo.locked for lk in algo.stack_locks)


def test_sharedmem_cancels_track_releases():
    """Every release resets the cancelable barrier exactly once."""
    algo = build("upc-sharedmem")
    releases = sum(s.releases for s in algo.stats)
    assert algo.barrier.cancels == releases
    assert releases > 0


def test_sharedmem_barrier_lock_contention_recorded():
    algo = build("upc-sharedmem", threads=12, k=2)
    assert algo.barrier.lock.acquisitions > 0


def test_streamlined_barrier_entered_about_once_per_thread():
    """Sect. 3.3.1: 'barrier operations are performed, almost always,
    only once'."""
    algo = build("upc-term", threads=8)
    entries = sum(s.barrier_entries for s in algo.stats)
    # Allow some churn (in-barrier steals), but it must be O(threads),
    # not O(releases) like the cancelable barrier.
    assert entries <= 3 * 8


def test_sharedmem_barrier_churn_exceeds_streamlined():
    sm = build("upc-sharedmem", threads=8, k=2)
    st = build("upc-term", threads=8, k=2)
    sm_entries = sum(s.barrier_entries for s in sm.stats)
    st_entries = sum(s.barrier_entries for s in st.stats)
    assert sm_entries > st_entries


def test_releases_and_reacquires_balance_with_steals():
    """Chunks leave a shared region either by reacquire or steal."""
    algo = build("upc-term-rapdif")
    releases = sum(s.releases for s in algo.stats)
    reacquires = sum(s.reacquires for s in algo.stats)
    chunks_stolen = sum(s.chunks_stolen for s in algo.stats)
    assert releases == reacquires + chunks_stolen


def test_rapdif_uses_steal_half():
    assert get_algorithm("upc-term-rapdif").steal_policies[0] == "half"
    assert get_algorithm("upc-term").steal_policies[0] == "one"
    assert get_algorithm("upc-distmem").steal_policies[0] == "half"


def test_steal_transfer_outside_critical_region():
    """The victim's stack lock is not held during the chunk transfer:
    total lock busy time is far below total stealing-state time."""
    machine = Machine(threads=8, net=KITTYHAWK, seed=0)
    algo = get_algorithm("upc-term")(machine, Tree(TREE), WsConfig(chunk_size=2))
    machine.spawn_all(algo.thread_main)
    machine.run()
    algo.finalize()
    steal_time = sum(s.timer.times["stealing"] for s in algo.stats)
    lock_busy = sum(lk.busy_time for lk in algo.stack_locks)
    assert steal_time > 0
    # Transfers (rdma_latency + bandwidth) happen outside the lock, so
    # lock hold time cannot account for all stealing time.
    assert lock_busy < steal_time
