"""Tests for the network cost model and platform presets."""

import copy
import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.net import (
    ALTIX,
    KITTYHAWK,
    NODE_DESC_BYTES,
    PRESETS,
    SHAREDMEM,
    TOPSAIL,
    NetworkModel,
    get_preset,
)


@pytest.fixture
def model():
    return NetworkModel(cores_per_node=4)


class TestTopology:
    """A node is ``cores_per_node`` consecutive ranks."""

    def test_node_of(self, model):
        assert model.ref_cost_bounds(0)[:2] == (0, 4)
        assert model.ref_cost_bounds(3)[:2] == (0, 4)
        assert model.ref_cost_bounds(4)[:2] == (4, 8)
        assert model.ref_cost_bounds(11)[:2] == (8, 12)

    def test_same_node(self, model):
        assert model.shared_ref(0, 3) == model.local_shared_ref
        assert model.shared_ref(3, 4) == model.remote_shared_ref
        assert model.lock_cost(5, 6) < model.lock_cost(5, 8)


class TestCosts:
    def test_self_access_is_free(self, model):
        assert model.shared_ref(2, 2) == 0.0
        assert model.one_sided(2, 2, 10**6) == 0.0
        assert model.message(2, 2, 10**6) == 0.0

    def test_onnode_cheaper_than_offnode(self, model):
        assert model.shared_ref(0, 1) < model.shared_ref(0, 4)
        assert model.one_sided(0, 1, 1024) < model.one_sided(0, 4, 1024)

    def test_one_sided_scales_with_bytes(self, model):
        small = model.one_sided(0, 4, 64)
        large = model.one_sided(0, 4, 64 * 1024)
        assert large > small
        assert large - small == pytest.approx((64 * 1024 - 64) / model.rdma_bandwidth)

    def test_lock_costs_order_of_magnitude_above_shared_ref(self, model):
        # Sect 3.3.3: remote locking ~10x a shared variable reference.
        ref = model.shared_ref(0, 4)
        lock = model.lock_cost(0, 4)
        assert lock >= 2 * ref

    def test_lock_at_home_is_cheap_but_not_free(self, model):
        assert 0 < model.lock_cost(3, 3) < model.lock_cost(0, 4)

    def test_chunk_transfer_uses_node_desc_bytes(self, model):
        assert model.chunk_transfer(0, 4, 10) == pytest.approx(
            model.one_sided(0, 4, 10 * NODE_DESC_BYTES)
        )

    def test_sequential_rate_inverse_of_visit_time(self, model):
        assert model.sequential_rate() == pytest.approx(1.0 / model.node_visit_time)


class TestValidation:
    def test_bad_cores_per_node(self):
        with pytest.raises(ConfigError):
            NetworkModel(cores_per_node=0)

    def test_negative_latency(self):
        with pytest.raises(ConfigError):
            NetworkModel(rdma_latency=-1e-6)

    def test_zero_bandwidth(self):
        with pytest.raises(ConfigError):
            NetworkModel(rdma_bandwidth=0)

    #: Every cost, bandwidth and time field (an infinite or NaN one
    #: never lets a run finish).
    FLOAT_FIELDS = ("node_visit_time", "local_shared_ref",
                    "remote_shared_ref", "rdma_latency", "rdma_bandwidth",
                    "msg_latency", "msg_bandwidth", "msg_injection",
                    "lock_overhead", "home_occupancy", "onnode_bandwidth",
                    "onnode_latency", "am_service_overhead")

    def test_the_float_fields_are_every_float_field(self):
        assert {f.name for f in dataclasses.fields(NetworkModel)
                if f.type == "float"} == set(self.FLOAT_FIELDS)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    def test_a_non_finite_value_is_refused_by_name(self, field, bad):
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            get_preset("kittyhawk").with_overrides(**{field: bad})

    def test_a_nan_cores_per_node_is_refused(self):
        with pytest.raises(ConfigError, match="cores_per_node"):
            NetworkModel(cores_per_node=math.nan)


class TestPresets:
    def test_sequential_rates_match_paper(self):
        # Sect. 4.1: 2.10 (Topsail), 2.39 (Kitty Hawk), 1.12 (Altix) Mnodes/s.
        assert TOPSAIL.sequential_rate() == pytest.approx(2.10e6)
        assert KITTYHAWK.sequential_rate() == pytest.approx(2.39e6)
        assert ALTIX.sequential_rate() == pytest.approx(1.12e6)

    def test_cluster_presets_have_multicore_nodes(self):
        assert KITTYHAWK.cores_per_node == 4  # 2x dual-core E5150
        assert TOPSAIL.cores_per_node == 8    # 2x quad-core E5345

    def test_altix_remote_ref_much_cheaper_than_cluster(self):
        assert ALTIX.remote_shared_ref < KITTYHAWK.remote_shared_ref / 5

    def test_sharedmem_everything_on_one_node(self):
        assert SHAREDMEM.shared_ref(0, 10**6) == SHAREDMEM.local_shared_ref

    def test_get_preset_roundtrip(self):
        for name in PRESETS:
            assert get_preset(name).name == name
        assert get_preset("TOPSAIL") is TOPSAIL

    def test_get_preset_unknown(self):
        with pytest.raises(ConfigError):
            get_preset("bluegene")

    def test_with_overrides_for_ablation(self):
        slow = KITTYHAWK.with_overrides(rdma_latency=50e-6)
        assert slow.rdma_latency == 50e-6
        assert slow.cores_per_node == KITTYHAWK.cores_per_node


# -- the parent's cost methods, verbatim, as the reference -------------------

class ParentCosts:
    """``NetworkModel``'s cost methods as they were before each became
    one locality test over precomputed constants, reading the fields of
    the model they wrap."""

    def __init__(self, model):
        self._model = model

    def __getattr__(self, name):
        return getattr(self._model, name)

    def node_of(self, rank: int) -> int:
        """SMP node index hosting UPC thread ``rank``."""
        return rank // self.cores_per_node

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    def _am_penalty(self) -> float:
        return self.am_service_overhead if self.am_mode else 0.0

    def shared_ref(self, src: int, dst: int) -> float:
        """One shared-variable read or write by ``src`` homed at ``dst``."""
        if src == dst:
            return 0.0
        if self.same_node(src, dst):
            return self.local_shared_ref
        return self.remote_shared_ref + self._am_penalty()

    def ref_cost_bounds(self, src: int) -> tuple:
        lo = self.node_of(src) * self.cores_per_node
        return (lo, lo + self.cores_per_node, self.local_shared_ref,
                self.remote_shared_ref + self._am_penalty())

    def one_sided(self, src: int, dst: int, nbytes: int) -> float:
        """A ``upc_memget``/``upc_memput`` of ``nbytes`` between ranks."""
        if src == dst:
            return 0.0
        if self.same_node(src, dst):
            return self.onnode_latency + nbytes / self.onnode_bandwidth
        return self.rdma_latency + nbytes / self.rdma_bandwidth + \
            self._am_penalty()

    def message(self, src: int, dst: int, nbytes: int) -> float:
        """A two-sided message of ``nbytes`` (delivery time once matched)."""
        if src == dst:
            return 0.0
        if self.same_node(src, dst):
            return self.onnode_latency + nbytes / self.onnode_bandwidth
        return self.msg_latency + nbytes / self.msg_bandwidth

    def lock_cost(self, src: int, home: int) -> float:
        """Uncontended acquire cost of a lock homed at rank ``home``."""
        if src == home:
            return self.local_shared_ref  # still an atomic, never free
        base = self.shared_ref(src, home)
        if self.same_node(src, home):
            return base + self.lock_overhead * 0.1
        return base + self.lock_overhead

    def chunk_transfer(self, src: int, dst: int, nnodes: int) -> float:
        """One-sided transfer of ``nnodes`` tree-node descriptors."""
        return self.one_sided(src, dst, nnodes * NODE_DESC_BYTES)


def costs(model, src, dst, nbytes, nnodes):
    """Every cost method's answer for one rank pair, as exact reprs."""
    return repr((model.shared_ref(src, dst), model.one_sided(src, dst, nbytes),
                 model.message(src, dst, nbytes), model.lock_cost(src, dst),
                 model.chunk_transfer(src, dst, nnodes),
                 model.ref_cost_bounds(src), model.ref_cost_bounds(dst)))


cost = st.floats(min_value=0.0, max_value=1e-3, allow_subnormal=False)
bandwidth = st.floats(min_value=1e3, max_value=1e12)
models = st.builds(
    lambda preset, over: get_preset(preset).with_overrides(**over),
    st.sampled_from(sorted(PRESETS)),
    st.fixed_dictionaries({
        "cores_per_node": st.integers(1, 64),
        "am_mode": st.booleans(),
    }, optional={
        "local_shared_ref": cost, "remote_shared_ref": cost,
        "rdma_latency": cost, "msg_latency": cost, "onnode_latency": cost,
        "lock_overhead": cost, "am_service_overhead": cost,
        "rdma_bandwidth": bandwidth, "msg_bandwidth": bandwidth,
        "onnode_bandwidth": bandwidth,
    }))
ranks = st.integers(0, 255)


class TestFlatCostsEqualTheParents:
    @settings(max_examples=400, deadline=None)
    @given(models, ranks, ranks, st.integers(0, 10**6), st.integers(0, 4096))
    def test_every_cost_method_is_bit_identical(self, model, src, dst,
                                                nbytes, nnodes):
        assert costs(model, src, dst, nbytes, nnodes) \
            == costs(ParentCosts(model), src, dst, nbytes, nnodes)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_every_preset_on_and_off_node(self, preset):
        model = get_preset(preset)
        for am in (False, True):
            m = model.with_overrides(am_mode=am)
            for src, dst in ((0, 0), (0, 1), (0, 3), (0, 4), (5, 17), (9, 8)):
                assert costs(m, src, dst, 448, 8) \
                    == costs(ParentCosts(m), src, dst, 448, 8)


class TestNoStaleDerivedCost:
    """The precomputed per-locality costs are not fields: they never
    show in the dataclass surface, and every copy path recomputes or
    carries them consistently with the fields."""

    BASE = KITTYHAWK.with_overrides(am_mode=True)

    def check(self, model):
        for src, dst in ((0, 1), (0, 4)):
            assert costs(model, src, dst, 64, 3) \
                == costs(ParentCosts(model), src, dst, 64, 3)

    def test_the_dataclass_surface_is_the_configuration(self):
        names = {f.name for f in dataclasses.fields(NetworkModel)}
        assert not any(n.startswith("_") for n in names)
        assert set(dataclasses.asdict(self.BASE)) == names
        assert "_lock_remote" not in repr(self.BASE)
        twin = dataclasses.replace(self.BASE)
        assert twin == self.BASE and hash(twin) == hash(self.BASE)

    @pytest.mark.parametrize("field, value", [
        ("lock_overhead", 50e-6), ("remote_shared_ref", 1e-6),
        ("local_shared_ref", 1e-6), ("am_service_overhead", 20e-6),
        ("am_mode", False), ("cores_per_node", 1)])
    def test_with_overrides_and_replace_recompute(self, field, value):
        for made in (self.BASE.with_overrides(**{field: value}),
                     dataclasses.replace(self.BASE, **{field: value})):
            assert getattr(made, field) == value
            self.check(made)

    def test_with_overrides_moves_lock_cost(self):
        dearer = self.BASE.with_overrides(lock_overhead=50e-6)
        assert dearer.lock_cost(0, 4) > self.BASE.lock_cost(0, 4)
        assert dearer.lock_cost(0, 1) > self.BASE.lock_cost(0, 1)

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
        ids=["copy", "deepcopy", "pickle"])
    def test_copies_carry_consistent_costs(self, clone):
        made = clone(self.BASE.with_overrides(lock_overhead=50e-6))
        assert made == self.BASE.with_overrides(lock_overhead=50e-6)
        self.check(made)
