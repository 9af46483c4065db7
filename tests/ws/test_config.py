"""Tests for WsConfig validation."""

import pytest

from repro.errors import ConfigError
from repro.ws import WsConfig


def test_defaults_valid():
    cfg = WsConfig()
    assert cfg.chunk_size == 8
    assert cfg.release_threshold == 16


def test_release_threshold_scales_with_k():
    assert WsConfig(chunk_size=5, release_factor=3).release_threshold == 15


def test_with_chunk_size_copy():
    cfg = WsConfig(chunk_size=8)
    cfg2 = cfg.with_chunk_size(32)
    assert cfg2.chunk_size == 32
    assert cfg.chunk_size == 8


@pytest.mark.parametrize("kw", [
    {"chunk_size": 0},
    {"release_factor": 1},
    {"poll_interval": 0},
    {"search_backoff_min": 0.0},
    {"search_backoff_min": 1e-3, "search_backoff_max": 1e-6},
    {"search_backoff_factor": 0.5},
    {"barrier_poll_min": 0.0},
    {"barrier_poll_min": 1e-3, "barrier_poll_max": 1e-6},
])
def test_invalid_configs_rejected(kw):
    with pytest.raises(ConfigError):
        WsConfig(**kw)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, value", [
    (field, value)
    for field in ("search_backoff_min", "search_backoff_max",
                  "search_backoff_factor", "barrier_poll_min",
                  "barrier_poll_max")
    for value in (NAN, INF, -INF)])
def test_non_finite_times_rejected_by_name(field, value):
    """A NaN backoff made mpi-ws spin past ``max_events`` and
    upc-distmem skip its waits; every bound is refused by name."""
    with pytest.raises(ConfigError, match=field):
        WsConfig(**{field: value})
