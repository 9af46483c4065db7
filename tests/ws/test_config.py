"""Tests for WsConfig validation."""

import pytest

from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.ws import WsConfig
from repro.ws.config import (BARRIER_POLL_MAX, BARRIER_POLL_MIN,
                             RELEASE_FACTOR, SEARCH_BACKOFF_FACTOR,
                             SEARCH_BACKOFF_MAX, SEARCH_BACKOFF_MIN)


def test_defaults_valid():
    cfg = WsConfig()
    assert cfg.chunk_size == 8
    assert cfg.release_threshold == 16


def test_release_threshold_scales_with_k():
    assert WsConfig(chunk_size=5).release_threshold == 10


def test_with_chunk_size_copy():
    cfg = WsConfig(chunk_size=8)
    cfg2 = cfg.with_chunk_size(32)
    assert cfg2.chunk_size == 32
    assert cfg.chunk_size == 8


@pytest.mark.parametrize("kw", [
    {"chunk_size": 0},
    {"poll_interval": 0},
    {"steal_policy": "most"},
    {"victim_policy": "nearest"},
    {"termination_policy": "oracle"},
    {"idle_strategy": "spin"},
    {"fastpath": "gpu"},
    {"faults": "drop=0.1"},
    {"speed_factors": (1.0, 0.0)},
    {"speed_factors": 3.0},
    {"adversaries": ((-1, "greedy"),)},
    {"adversaries": ((0, "nosuch"),)},
    {"idle_strategy": "park", "faults": FaultPlan(msg_drop_rate=0.1)},
])
def test_invalid_configs_rejected(kw):
    with pytest.raises(ConfigError):
        WsConfig(**kw)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_non_finite_speed_factors_rejected_by_name(value):
    with pytest.raises(ConfigError, match=r"speed_factors\[1\]"):
        WsConfig(speed_factors=(1.0, value))


def test_protocol_constants_keep_the_ranges_their_fields_were_checked_for():
    """Below 2 a release could empty the local region; a zero, NaN or
    unordered backoff or poll spins the host or skips every wait."""
    assert RELEASE_FACTOR >= 2
    assert 0 < SEARCH_BACKOFF_MIN <= SEARCH_BACKOFF_MAX < INF
    assert 1.0 <= SEARCH_BACKOFF_FACTOR < INF
    assert 0 < BARRIER_POLL_MIN <= BARRIER_POLL_MAX < INF
