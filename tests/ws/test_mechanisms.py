"""Microscenario tests of the paper's cost mechanisms.

Each test isolates one causal claim from the paper's analysis and
checks that the simulation actually produces it -- these are the
mechanisms the figure-level results are built from.
"""

import pytest

from repro import TreeParams, WsConfig, run_experiment
from repro.net import KITTYHAWK, NetworkModel
from repro.pgas import Machine
from repro.sim.engine import Timeout
from repro.uts.tree import Tree
from repro.ws.algorithms import get_algorithm

TREE = TreeParams.binomial(b0=100, m=2, q=0.49, seed=0)


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


def test_thief_held_lock_stalls_owner_release():
    """Sect. 3.1/3.3.3: a remote thief holding the stack lock delays the
    owner's release, by about the thief's full remote critical section."""
    net = NetworkModel(cores_per_node=1, remote_shared_ref=10.0,
                       local_shared_ref=0.01, lock_overhead=50.0,
                       rdma_latency=1.0, rdma_bandwidth=1e9)
    machine = Machine(threads=2, net=net)
    algo = get_algorithm("upc-term")(machine, Tree(TREE), WsConfig(chunk_size=1))
    # Owner (rank 0) has surplus; remote thief (rank 1) will lock it.
    stack = algo.stacks[0]
    stack.push_many([Tree(TREE).root()] * 4)
    stack.release(1)
    algo.work_avail[0].poke(1)
    timings = {}

    def thief(ctx):
        yield from algo.try_steal(ctx, 0)

    def owner(ctx):
        # Try to release at t=100: the thief (started at t=0, lock held
        # from ~60 after cost+acquire) should be inside its critical
        # section doing two 10s remote refs + a 10s unlock.
        yield from ctx.compute(61.0)
        t0 = ctx.now
        yield from release(algo, ctx)
        timings["release_wait"] = ctx.now - t0

    machine.sim.spawn(thief(machine.contexts[1]))
    machine.sim.spawn(owner(machine.contexts[0]))
    machine.run()
    # Without contention the owner's release is nearly free (local lock
    # + local ops ~0.05); behind the thief it waits for the remote
    # critical section to finish.
    assert timings["release_wait"] > 5.0


def test_distmem_victim_service_is_cheap():
    """Sect. 3.3.3: servicing a steal request costs the victim little
    (two one-sided puts' injection), unlike a lock-based reservation."""
    machine = Machine(threads=2, net=KITTYHAWK)
    algo = get_algorithm("upc-distmem")(machine, Tree(TREE),
                                        WsConfig(chunk_size=1))
    stack = algo.stacks[0]
    stack.push_many([Tree(TREE).root()] * 4)
    stack.release(1)
    algo.work_avail[0].poke(1)
    algo.request[0].poke(1)  # thief 1's request already landed
    ev = machine.sim.event()
    algo.response_events[1] = ev
    cost = {}

    def victim(ctx):
        t0 = ctx.now
        yield from algo.service_request(ctx)
        cost["service"] = ctx.now - t0

    machine.sim.spawn(victim(machine.contexts[0]))

    def sink(ctx):
        yield ev

    machine.sim.spawn(sink(machine.contexts[1]))
    machine.run()
    assert cost["service"] == pytest.approx(2 * KITTYHAWK.msg_injection)
    # Far below one remote round trip, let alone a lock.
    assert cost["service"] < KITTYHAWK.remote_shared_ref


def test_chunk_transfer_time_scales_with_k():
    """Bigger chunks cost proportionally more wire time."""
    machine = Machine(threads=2, net=KITTYHAWK)
    times = {}

    def getter(ctx, k, key):
        t0 = ctx.now
        yield from ctx.chunk_get(0, k)
        times[key] = ctx.now - t0

    machine.sim.spawn(getter(machine.contexts[1], 1, "small"))
    machine.run()
    machine2 = Machine(threads=2, net=KITTYHAWK)
    machine2.sim.spawn(getter(machine2.contexts[1], 1024, "big"))
    machine2.run()
    assert times["big"] > times["small"]
    # Ranks 0 and 1 share a Kitty Hawk node, so the on-node bandwidth
    # governs the scaling.
    from repro.net.model import NODE_DESC_BYTES
    expected_delta = 1023 * NODE_DESC_BYTES / KITTYHAWK.onnode_bandwidth
    assert times["big"] - times["small"] == pytest.approx(expected_delta)


def test_barrier_reset_charged_to_remote_releaser():
    """Sect. 3.1: resetting the cancelable barrier is a remote write
    that delays the releasing worker (free only at the barrier's home)."""
    from repro.ws.termination import CancelableBarrier

    machine = Machine(threads=4, net=KITTYHAWK)
    barrier = CancelableBarrier(machine)
    costs = {}

    def worker(ctx, key):
        t0 = ctx.now
        yield from barrier.reset(ctx)
        costs[key] = ctx.now - t0

    machine.sim.spawn(worker(machine.contexts[0], "home"))
    machine.sim.spawn(worker(machine.contexts[1], "onnode"))
    machine.run()
    assert costs["home"] == 0.0
    assert costs["onnode"] == pytest.approx(KITTYHAWK.local_shared_ref)

    machine2 = Machine(threads=8, net=KITTYHAWK)
    barrier2 = CancelableBarrier(machine2)
    machine2.sim.spawn(worker(machine2.contexts[7], "offnode"))
    machine2.run()
    # A different SMP node: full remote reference.
    assert costs["offnode"] == pytest.approx(KITTYHAWK.remote_shared_ref)


def test_onnode_steal_cheaper_than_offnode():
    """The hierarchical extension's premise: intra-node transfers are
    far cheaper on the cluster models."""
    cost_on = KITTYHAWK.chunk_transfer(0, 1, 8)    # same node (4/node)
    cost_off = KITTYHAWK.chunk_transfer(0, 4, 8)   # next node
    assert cost_off > 5 * cost_on


def test_steal_half_spreads_sources_faster_than_steal_one():
    """Sect. 3.3.2: with rapid diffusion the same workload needs fewer
    total steals (each one moves more) at small chunk sizes."""
    tree = TreeParams.binomial(b0=300, m=2, q=0.49, seed=2)
    one = run_experiment("upc-term", tree=tree, threads=12,
                         preset="kittyhawk", chunk_size=2, verify=True)
    half = run_experiment("upc-term-rapdif", tree=tree, threads=12,
                          preset="kittyhawk", chunk_size=2, verify=True)
    assert half.stats.steals_ok < one.stats.steals_ok
    assert half.stats.chunks_stolen / half.stats.steals_ok > 1.0
