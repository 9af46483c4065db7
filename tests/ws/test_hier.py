"""Tests for the hierarchical (Sect. 6.2) probe order and algorithm."""

import time

import pytest

from repro import TreeParams, run_experiment
from repro.net import NetworkModel
from repro.sim.rng import StreamRng
from repro.ws.policies import HierarchicalProbeOrder

NET = NetworkModel(cores_per_node=4)


def make_order(rank=0, n=16):
    return HierarchicalProbeOrder(rank, n, StreamRng(0, "t", rank), NET)


class TestHierarchicalProbeOrder:
    def test_cycle_is_permutation(self):
        po = make_order(rank=5, n=16)
        cyc = po.cycle()
        assert sorted(cyc) == [t for t in range(16) if t != 5]

    def test_on_node_ranks_come_first(self):
        po = make_order(rank=5, n=16)  # node 1 = ranks 4..7
        cyc = po.cycle()
        assert set(cyc[:3]) == {4, 6, 7}

    def test_every_cycle_keeps_on_node_prefix(self):
        po = make_order(rank=0, n=12)  # node 0 = ranks 0..3
        for _ in range(10):
            assert set(po.cycle()[:3]) == {1, 2, 3}

    def test_one_never_self(self):
        po = make_order(rank=2, n=8)
        assert all(po.one() != 2 for _ in range(200))

    def test_one_prefers_on_node(self):
        po = make_order(rank=0, n=64)
        picks = [po.one() for _ in range(500)]
        on_node = sum(1 for p in picks if p in (1, 2, 3))
        # Uniform choice would give ~3/63 = 4.8%; preference gives ~50%+.
        assert on_node > len(picks) * 0.3

    def test_rank_alone_on_node(self):
        """cores_per_node=1: no on-node peers; falls back to uniform."""
        net1 = NetworkModel(cores_per_node=1)
        po = HierarchicalProbeOrder(0, 8, StreamRng(0, "t", 0), net1)
        assert sorted(po.cycle()) == list(range(1, 8))
        assert po.one() in range(1, 8)


class StoredListOrder:
    """The order as it was before it became range arithmetic: per-rank
    on-/off-node lists from n ``same_node`` calls, ``choice`` over
    them.  Kept as the reference for draws and victims."""

    def __init__(self, rank, n, rng, net):
        self._rng = rng
        self._all = [t for t in range(n) if t != rank]
        cpn = net.cores_per_node  # (was NetworkModel.same_node)
        self._on_node = [t for t in self._all if rank // cpn == t // cpn]
        self._off_node = [t for t in self._all if rank // cpn != t // cpn]

    def segments(self):
        return [list(self._on_node), list(self._off_node)]

    def one(self):
        if self._on_node and self._rng.uniform(0.0, 1.0) < 0.5:
            return self._rng.choice(self._on_node)
        return self._rng.choice(self._all)


class TestRangeArithmeticEqualsStoredLists:
    @pytest.mark.parametrize("cores", [1, 3, 4, 16, 64])
    @pytest.mark.parametrize("n", [2, 5, 16, 37])
    def test_same_segments_same_draws_same_victims(self, n, cores):
        net = NetworkModel(cores_per_node=cores)
        for rank in range(n):
            new = HierarchicalProbeOrder(rank, n, StreamRng(3, "t", rank), net)
            old = StoredListOrder(rank, n, StreamRng(3, "t", rank), net)
            assert list(map(list, new.segments())) == old.segments()
            assert ([new.one() for _ in range(40)]
                    == [old.one() for _ in range(40)])
            # ... and the two streams stand at the same draw afterwards
            assert new._rng.randrange(1 << 30) == old._rng.randrange(1 << 30)

    def test_segments_are_fresh_lists(self):
        po = make_order(rank=5, n=16)
        po.segments()[0].reverse()
        assert list(po.segments()[0]) == [4, 6, 7]

    def test_construction_is_linear_in_the_machine(self):
        """All 4,096 orders of a 4,096-thread machine: 9 s and O(n^2)
        ints as stored lists, well under the bound as two ints each."""
        net = NetworkModel(cores_per_node=4)
        rng = StreamRng(0, "t", 0)
        t0 = time.perf_counter()
        orders = [HierarchicalProbeOrder(r, 4096, rng, net)
                  for r in range(4096)]
        assert time.perf_counter() - t0 < 1.0
        assert list(orders[4095].segments()[0]) == [4092, 4093, 4094]


class TestHierAlgorithm:
    TREE = TreeParams.binomial(b0=60, m=2, q=0.47, seed=4)

    @pytest.mark.parametrize("threads", [2, 8, 13])
    def test_conservation(self, threads):
        run_experiment("upc-distmem-hier", tree=self.TREE, threads=threads,
                       preset="kittyhawk", chunk_size=4, verify=True)

    def test_determinism(self):
        kw = dict(tree=self.TREE, threads=8, preset="kittyhawk", chunk_size=4)
        a = run_experiment("upc-distmem-hier", **kw)
        b = run_experiment("upc-distmem-hier", **kw)
        assert a.sim_time == b.sim_time

    def test_competitive_with_flat_distmem(self):
        tree = TreeParams.binomial(b0=200, m=2, q=0.49, seed=1)
        kw = dict(tree=tree, threads=8, preset="kittyhawk", chunk_size=4,
                  verify=True)
        flat = run_experiment("upc-distmem", **kw)
        hier = run_experiment("upc-distmem-hier", **kw)
        assert hier.nodes_per_sec > 0.5 * flat.nodes_per_sec
