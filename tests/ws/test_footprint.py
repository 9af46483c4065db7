"""What a large parked machine holds per rank.

The ledger's ``park-pool`` shape: a 4096-thread ``upc-distmem`` machine
under ``idle_strategy="park"`` on T1_QUICK.  Most of its ranks never
draw from their random stream (445 of 4096 do), so a stream is seeded
at its first draw; a search's live scan holds its victims as
``array('i')``; empty shared regions and lock queues are lists, not
760-byte deques.  Built that way the machine traces 2.7 KB a rank
(3.1 KB on Python 3.10); built eagerly it traced 7.1 KB.
"""

import random
import tracemalloc
from array import array
from types import SimpleNamespace

from repro.harness.config import T1_QUICK
from repro.harness.runner import tree_for
from repro.net.presets import get_preset
from repro.pgas.machine import Machine
from repro.sim.rng import StreamRng, substream_seed
from repro.ws.algorithms import get_algorithm
from repro.ws.config import WsConfig
from repro.ws.policies import HierarchicalProbeOrder, ProbeOrder
from tests.sim.test_rng import seeded

N = 4096


def park_cell(n=N):
    """The ledger's 4096-thread ``upc-distmem`` park cell, built and
    spawned (or a smaller machine of the same shape)."""
    machine = Machine(threads=n, net=get_preset("kittyhawk"), seed=0)
    algo = get_algorithm("upc-distmem")(
        machine, tree_for(T1_QUICK),
        WsConfig(chunk_size=4, idle_strategy="park"))
    machine.spawn_all(algo.thread_main)
    return machine


def test_a_parked_4096_thread_machine_is_at_most_3_6_kb_a_rank():
    tree_for(T1_QUICK)  # the tree is the cache's, not the machine's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        machine = park_cell()
        per_rank = (tracemalloc.get_traced_memory()[0] - before) / N
    finally:
        tracemalloc.stop()
    assert machine.n_threads == N
    assert per_rank <= 3600, f"{per_rank:.0f} B a rank"


def test_a_fresh_machine_has_seeded_no_stream():
    machine = park_cell(n=64)
    assert not any(seeded(ctx.rng) for ctx in machine.contexts)
    assert machine.contexts[5].rng.name == "thread:5"  # naming is free
    assert not seeded(machine.contexts[5].rng)


def test_after_the_run_the_seeded_streams_are_the_ranks_that_drew():
    machine = park_cell()
    machine.run()
    drew = set()
    for ctx in machine.contexts:
        if seeded(ctx.rng):
            fresh = random.Random(substream_seed(0, "thread", ctx.rank))
            assert ctx.rng._rng.getstate() != fresh.getstate(), ctx.rank
            drew.add(ctx.rank)
    assert len(drew) == 445  # of 4096: the rest cost two slots each


def test_every_probe_scan_segment_is_an_int_array():
    net = get_preset("kittyhawk")
    for order in (ProbeOrder(5, 64, StreamRng(0, "t", 5)),
                  HierarchicalProbeOrder(5, 64, StreamRng(0, "t", 5), net)):
        scan = order.scan()
        slots = [SimpleNamespace(value=0)] * 64
        for _ in range(2):  # before the first probe, and after a full scan
            segments = [scan._items, *scan._todo]
            assert all(type(seg) is array and seg.typecode == "i"
                       for seg in segments)
            assert scan.probe(slots, net.ref_cost_bounds(5))[0] is None
