"""Tests for the splittable RNG engines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.uts.rng import (
    RAND_MAX,
    Sha1Engine,
    SplitmixEngine,
    get_engine,
)

ENGINES = [Sha1Engine(), SplitmixEngine()]


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.name)
class TestEngineContract:
    def test_init_deterministic(self, engine):
        assert engine.init(42) == engine.init(42)

    def test_init_seed_sensitivity(self, engine):
        assert engine.init(0) != engine.init(1)

    def test_spawn_deterministic(self, engine):
        root = engine.init(0)
        assert engine.spawn(root, 3) == engine.spawn(root, 3)

    def test_spawn_children_distinct(self, engine):
        root = engine.init(0)
        kids = [engine.spawn(root, i) for i in range(100)]
        assert len(set(kids)) == 100

    def test_rand_in_31_bit_range(self, engine):
        state = engine.init(7)
        for i in range(200):
            state = engine.spawn(state, 0)
            r = engine.rand(state)
            assert 0 <= r <= RAND_MAX

    def test_rand_roughly_uniform(self, engine):
        """Mean of rand over many spawns is near RAND_MAX/2."""
        state = engine.init(123)
        vals = []
        for i in range(2000):
            state = engine.spawn(state, i % 4)
            vals.append(engine.rand(state))
        mean = sum(vals) / len(vals)
        assert abs(mean - RAND_MAX / 2) < RAND_MAX * 0.05


def test_get_engine_names():
    assert get_engine("sha1").name == "sha1"
    assert get_engine("splitmix").name == "splitmix"


def test_get_engine_unknown():
    with pytest.raises(ConfigError):
        get_engine("md5")


@given(st.integers(min_value=0, max_value=2**31), st.integers(0, 4095))
@settings(max_examples=100, deadline=None)
def test_sha1_spawn_large_child_index_consistent(seed, idx):
    e = Sha1Engine()
    root = e.init(seed)
    assert e.spawn(root, idx) == e.spawn(root, idx)
