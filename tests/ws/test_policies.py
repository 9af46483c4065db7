"""Tests for steal-amount and probe-order policies."""

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import NetworkModel
from repro.sim.rng import StreamRng, substream_seed
from repro.ws.policies import (HierarchicalProbeOrder, ProbeOrder, ProbeScan,
                               steal_half, steal_one)


class TestStealAmounts:
    def test_steal_one_always_one(self):
        for n in (1, 2, 10, 1000):
            assert steal_one(n) == 1

    def test_steal_half_single_chunk(self):
        assert steal_half(1) == 1

    def test_steal_half_pairs(self):
        assert steal_half(2) == 1
        assert steal_half(3) == 2
        assert steal_half(4) == 2
        assert steal_half(10) == 5
        assert steal_half(11) == 6

    def test_zero_available_rejected(self):
        with pytest.raises(ValueError):
            steal_one(0)
        with pytest.raises(ValueError):
            steal_half(0)

    @given(st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_steal_half_never_exceeds_available(self, n):
        take = steal_half(n)
        assert 1 <= take <= n
        # Taking "half" always leaves at least half-rounded-down behind.
        assert n - take >= n // 2 - 1


class TestProbeOrder:
    def test_cycle_is_permutation_of_others(self):
        po = ProbeOrder(rank=3, n_threads=8, rng=StreamRng(0, "t", 3))
        cyc = po.cycle()
        assert sorted(cyc) == [0, 1, 2, 4, 5, 6, 7]

    def test_cycles_vary(self):
        po = ProbeOrder(rank=0, n_threads=32, rng=StreamRng(0, "t", 0))
        assert po.cycle() != po.cycle()  # astronomically unlikely to match

    def test_deterministic_across_instances(self):
        a = ProbeOrder(0, 16, StreamRng(5, "t", 0))
        b = ProbeOrder(0, 16, StreamRng(5, "t", 0))
        assert [a.cycle() for _ in range(3)] == [b.cycle() for _ in range(3)]

    def test_one_never_self(self):
        po = ProbeOrder(rank=2, n_threads=4, rng=StreamRng(1, "t", 2))
        assert all(po.one() != 2 for _ in range(100))

    def test_two_threads(self):
        po = ProbeOrder(rank=0, n_threads=2, rng=StreamRng(0, "t", 0))
        assert po.cycle() == [1]
        assert po.one() == 1

    def test_segments_are_fresh_int_arrays_of_the_others(self):
        po = ProbeOrder(rank=1, n_threads=4, rng=StreamRng(0, "t", 1))
        assert [list(seg) for seg in po.segments()] == [[0, 2, 3]]
        assert all(seg.typecode == "i" for seg in po.segments())
        po.segments()[0].reverse()
        assert [list(seg) for seg in po.segments()] == [[0, 2, 3]]

    def test_getrandbits_is_the_streams_or_none(self):
        rng = StreamRng(0, "t", 0)
        assert ProbeOrder(0, 4, rng).getrandbits is rng.getrandbits
        assert ProbeOrder(0, 4, object()).getrandbits is None

    def test_one_on_a_single_rank_machine_names_the_stream(self):
        po = ProbeOrder(rank=0, n_threads=1, rng=StreamRng(0, "thread", 0))
        assert po.cycle() == []
        with pytest.raises(ValueError, match="thread:0"):
            po.one()


# -- the lazy scan == the generator it replaced -------------------------------
#
# Park-mode schedules are pinned to the draw sequence of the incremental
# Fisher-Yates generator below (``ProbeOrder._lazy_shuffle`` /
# ``lazy_cycle`` until ISSUE 14), consumed through stdlib
# ``random.Random.randrange``.  It stays here as the reference the fused
# ``ProbeScan`` kernel is compared against: same victims in the same
# order, same reference-cost sum, same generator state afterwards.

def reference_lazy_cycle(segments, rng: random.Random):
    """The parent's ``lazy_cycle``: each segment in turn, one
    ``randrange`` per yielded victim."""
    for items in segments:
        n = len(items)
        for i in range(n):
            j = i + rng.randrange(n - i)
            items[i], items[j] = items[j], items[i]
            yield items[i]


NET = NetworkModel(cores_per_node=4)
SHAPES = ["uniform", "hierarchical"]


class Slot:
    def __init__(self, value):
        self.value = value


def make_orders(shape, rank, n, seed):
    """The probe order under test and the stdlib generator that replays
    its stream from the start."""
    rng = StreamRng(seed, "thread", rank)
    ref = random.Random(substream_seed(seed, "thread", rank))
    if shape == "uniform":
        return ProbeOrder(rank, n, rng), ref
    return HierarchicalProbeOrder(rank, n, rng, NET), ref


def reference_probe(gen, slots, bounds):
    """The parent's park-loop body around the generator: probe on to the
    first positive slot; ``(victim | None, cost_acc, n_probes)``."""
    node_lo, node_hi, c_local, c_remote = bounds
    cost_acc = 0.0
    n_probes = 0
    for victim in gen:
        n_probes += 1
        cost_acc += c_local if node_lo <= victim < node_hi else c_remote
        if slots[victim].value > 0:
            return victim, cost_acc, n_probes
    return None, cost_acc, n_probes


class TestProbeScan:
    @pytest.mark.parametrize("shape", SHAPES)
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(2, 300),
           data=st.data())
    def test_scan_equals_reference_generator(self, shape, seed, n, data):
        """Any pattern of hits: every probe() call returns what the
        generator loop returns, and the stream ends in the same state
        -- whether the scan runs dry or is dropped after p probes."""
        rank = data.draw(st.integers(0, n - 1))
        hits = data.draw(st.sets(st.integers(0, n - 1), max_size=6))
        stop_after = data.draw(st.integers(0, len(hits)))
        slots = [Slot(3 if v in hits else (0 if v % 3 else -1))
                 for v in range(n)]
        bounds = NET.ref_cost_bounds(rank)
        order, ref = make_orders(shape, rank, n, seed)
        gen = reference_lazy_cycle(order.segments(), ref)
        scan = order.scan()
        calls = 0
        while True:
            got = scan.probe(slots, bounds)
            assert got == reference_probe(gen, slots, bounds)
            calls += 1
            if got[0] is None or calls > stop_after:
                break
        assert order._rng._rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("n", [2, 5, 64, 65, 129, 1024])
    def test_full_scan_is_the_reference_permutation(self, shape, n):
        rank = n // 3
        order, ref = make_orders(shape, rank, n, seed=9)
        expect = list(reference_lazy_cycle(order.segments(), ref))
        slots = [Slot(1)] * n  # every probe hits: one victim per call
        bounds = NET.ref_cost_bounds(rank)
        scan = order.scan()
        got = []
        while (hit := scan.probe(slots, bounds))[0] is not None:
            assert hit[2] == 1
            got.append(hit[0])
        assert got == expect
        assert sorted(got) == [v for v in range(n) if v != rank]
        assert order._rng._rng.getstate() == ref.getstate()

    def test_cost_is_added_left_to_right(self):
        """Three costs whose sum depends on the order of addition."""
        net = NetworkModel(cores_per_node=2, local_shared_ref=0.1,
                           remote_shared_ref=0.7)
        order, ref = make_orders("uniform", 0, 12, seed=1)
        victims = list(reference_lazy_cycle(order.segments(), ref))
        expect = 0.0
        for v in victims:
            expect += net.shared_ref(0, v)
        _, cost, n_probes = order.scan().probe([Slot(0)] * 12,
                                               net.ref_cost_bounds(0))
        assert n_probes == 11
        assert repr(cost) == repr(expect)

    def test_scan_without_victims(self):
        order, _ = make_orders("uniform", 0, 1, seed=0)
        assert order.scan().probe([Slot(5)], NET.ref_cost_bounds(0)) == \
            (None, 0.0, 0)


class TestAbandon:
    """Trap (a) of ISSUE 14.  The parent's loop was ``for victim in
    lazy_cycle(): if gate.n_surplus == 0: break``: by the time the
    consumer saw the surplus gone, the generator had already drawn the
    next position.  ``abandon()`` is that draw; leaving it out moves
    ``upc-distmem/T1024/park`` from 62,181 to 62,189 events."""

    @staticmethod
    def stop_after(shape, n, rank, p, seed=4):
        """Probe ``p`` victims, then have the steal fail with no
        surplus left; returns (stream state, reference state, state the
        reference had *before* the discarded draw)."""
        order, ref = make_orders(shape, rank, n, seed)
        gen = reference_lazy_cycle(order.segments(), ref)
        for _ in range(p):
            next(gen)
        before = ref.getstate()
        next(gen, None)  # the for-loop's next(), then `break`
        scan = order.scan()
        hit_all = [Slot(1)] * n
        for _ in range(p):
            scan.probe(hit_all, NET.ref_cost_bounds(rank))
        scan.abandon()
        return order._rng._rng.getstate(), ref.getstate(), before

    @pytest.mark.parametrize("p", [1, 5, 29, 30])
    def test_abandon_consumes_the_next_positions_draw(self, p):
        got, ref, before = self.stop_after("uniform", 32, 7, p)
        assert got == ref
        assert got != before  # even randrange(1) draws

    def test_abandon_after_the_last_position_draws_nothing(self):
        got, ref, before = self.stop_after("uniform", 32, 7, 31)
        assert got == ref == before

    def test_abandon_at_a_segment_boundary_draws_from_the_next(self):
        # rank 5 of 16, four per node: 3 on-node victims, 12 off-node.
        got, ref, before = self.stop_after("hierarchical", 16, 5, 3)
        assert got == ref
        assert got != before

    def test_abandon_skips_an_empty_segment(self):
        # 4 ranks, one node: the off-node segment is empty.
        got, ref, before = self.stop_after("hierarchical", 4, 1, 3)
        assert got == ref == before


class TestCompiledScanKernel:
    """``repro.fastpath._core.scan_probe`` is ``ProbeScan.probe`` in C,
    taken wherever a run's resolved backend is ``fast``: the two must
    agree call for call on the victim, ``repr(cost_acc)``, the probe
    count, the scan's own state and where they leave the generator.
    The scan's segments are ``array('i')``, swapped in place by both
    (the C kernel in the arrays' buffers)."""

    #: Every bit-length boundary the draw rule crosses, and its sides.
    SIZES = sorted({0, 1, 2, 3, 5000}
                   | {2 ** k + d for k in range(2, 13) for d in (-1, 0, 1)})

    @pytest.fixture(autouse=True)
    def kernel(self, monkeypatch):
        import repro.fastpath as fp
        monkeypatch.delenv("REPRO_FASTPATH", raising=False)
        if not fp.available():
            pytest.skip("compiled core not built on this host")
        self.scan_probe = fp.load_core().scan_probe

    def pair(self, shape, n, rank, seed):
        (a, _), (b, _) = (make_orders(shape, rank, n, seed) for _ in "ab")
        return a, a.scan(), b, b.scan()

    @staticmethod
    def state(order, scan):
        segments = [scan._items, *scan._todo]
        assert all(type(seg) is array and seg.typecode == "i"
                   for seg in segments)
        return (scan._m, list(scan._items[:scan._m]),
                [list(seg) for seg in scan._todo],
                order._rng._rng.getstate())

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("segment", SIZES)
    def test_kernel_equals_python_probe(self, shape, segment):
        """Scans with 0..3 hits, resumed until dry; the uniform order's
        one segment has exactly ``segment`` victims."""
        from repro.pgas.shared import SharedVar

        n = segment + 1
        for seed, n_hits in enumerate((0, 1, 3)):
            rank = (seed * 7) % n
            hits = set(random.Random(seed).sample(
                [v for v in range(n) if v != rank], min(n_hits, n - 1)))
            values = [3 if v in hits else (0 if v % 3 else -1)
                      for v in range(n)]
            bounds = NET.ref_cost_bounds(rank)
            # plain attribute holders for Python, real slots for C
            slots_py = [Slot(v) for v in values]
            slots_c = [SharedVar(f"wa[{i}]", i, v)
                       for i, v in enumerate(values)]
            py_order, py, c_order, c = self.pair(shape, n, rank, seed)
            calls = 0
            while True:
                want = py.probe(slots_py, bounds)
                got = self.scan_probe(c, slots_c, bounds)
                assert (got[0], repr(got[1]), got[2]) == \
                    (want[0], repr(want[1]), want[2])
                assert self.state(c_order, c) == self.state(py_order, py)
                calls += 1
                if want[0] is None:
                    break
            assert calls == len(hits) + 1

    def test_kernel_reads_any_slot_with_a_value(self):
        """Not only ``SharedVar``: whatever ``slots[victim].value > 0``
        means in Python, it means in C."""
        py_order, py, c_order, c = self.pair("hierarchical", 40, 9, 2)
        slots = [Slot(2.5 if v == 31 else -1) for v in range(40)]
        bounds = NET.ref_cost_bounds(9)
        want = py.probe(slots, bounds)
        assert want[0] == 31
        assert self.scan_probe(c, slots, bounds) == want
        assert self.state(c_order, c) == self.state(py_order, py)

    def test_abandon_after_a_kernel_probe(self):
        py_order, py, c_order, c = self.pair("hierarchical", 16, 5, 4)
        slots = [Slot(1)] * 16
        bounds = NET.ref_cost_bounds(5)
        for _ in range(3):  # the whole on-node segment
            assert self.scan_probe(c, slots, bounds) == \
                py.probe(slots, bounds)
        py.abandon()
        c.abandon()
        assert c_order._rng._rng.getstate() == py_order._rng._rng.getstate()

    def test_kernel_refuses_what_is_not_a_scan(self):
        from types import SimpleNamespace

        bounds = NET.ref_cost_bounds(0)
        with pytest.raises(AttributeError):
            self.scan_probe(object(), [], bounds)
        rng = StreamRng(0, "thread", 0)
        for todo, items, m in [((), array("i"), 0), ([], array("i", [1]), 2),
                               ([], array("i"), -1)]:
            with pytest.raises(TypeError, match="not a ProbeScan"):
                self.scan_probe(SimpleNamespace(_rng=rng, _todo=todo,
                                                _items=items, _m=m),
                                [Slot(0)] * 4, bounds)
        order, _ = make_orders("uniform", 0, 4, 0)
        with pytest.raises(TypeError, match="bounds"):
            self.scan_probe(order.scan(), [Slot(1)] * 4, (0, 4))

    #: Segments the kernel must refuse by name: what is not an
    #: ``array('i')`` is a TypeError, a rank outside ``[0, n)`` an
    #: IndexError (``tests/fastpath`` drives the same inputs through
    #: whole runs, under ``python -X dev`` in CI).
    NOT_INTS = r"fastpath: a victim segment must be an array\('i'\)"
    OUT_OF_RANGE = "fastpath: probe victim out of range"
    MALFORMED = {
        "list": ([1, 2, 3], TypeError, NOT_INTS + ", not list"),
        "int64-array": (array("q", [1, 2, 3]), TypeError, NOT_INTS),
        "float-array": (array("d", [1.0, 2.0]), TypeError, NOT_INTS),
        "rank-n": (array("i", [1, 2, 4]), IndexError, OUT_OF_RANGE),
        "rank-negative": (array("i", [-1]), IndexError, OUT_OF_RANGE),
    }

    @pytest.mark.parametrize("where", ["items", "todo"])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_kernel_refuses_malformed_segments(self, case, where):
        seg, error, match = self.MALFORMED[case]
        scan = ProbeScan(StreamRng(0, "thread", 0), [])
        if where == "items":  # the segment in hand, mid-scan
            scan._items, scan._m = seg, len(seg)
        else:                 # the next one the scan pops
            scan._todo.append(seg)
        with pytest.raises(error, match=match):
            self.scan_probe(scan, [Slot(0)] * 4, NET.ref_cost_bounds(0))
