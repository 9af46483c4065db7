"""Tests for the experiment runner."""

import pytest

from repro import (
    KITTYHAWK,
    ConfigError,
    TraceSink,
    TreeParams,
    WsConfig,
    expected_node_count,
    run_experiment,
)

TREE = TreeParams.binomial(b0=40, q=0.45, seed=3)


def test_expected_node_count_cached():
    a = expected_node_count(TREE)
    b = expected_node_count(TREE)
    assert a == b > 40


def test_runner_basic():
    res = run_experiment("upc-distmem", tree=TREE, threads=4,
                         preset="kittyhawk", chunk_size=4, verify=True)
    assert res.algorithm == "upc-distmem"
    assert res.n_threads == 4
    assert res.chunk_size == 4
    assert res.machine_name == "kittyhawk"
    assert res.sim_time > 0
    assert res.engine_events > 0
    assert res.host_seconds > 0
    assert "binomial" in res.tree_description


def test_runner_rejects_bad_threads():
    with pytest.raises(ConfigError):
        run_experiment("upc-distmem", tree=TREE, threads=0, chunk_size=4)


def test_runner_rejects_bad_algorithm():
    with pytest.raises(ConfigError):
        run_experiment("upc-magic", tree=TREE, threads=4, chunk_size=4)


def test_runner_rejects_bad_preset():
    with pytest.raises(ConfigError):
        run_experiment("upc-distmem", tree=TREE, threads=4, preset="cray")


def test_runner_rejects_bad_queue_naming_auto():
    with pytest.raises(ConfigError, match="'auto', 'heap' or 'bucket'"):
        run_experiment("upc-distmem", tree=TREE, threads=4, chunk_size=4,
                       queue="calendar")


def test_explicit_net_overrides_preset():
    net = KITTYHAWK.with_overrides(remote_shared_ref=100e-6)
    slow = run_experiment("upc-distmem", tree=TREE, threads=4, net=net,
                          chunk_size=4)
    fast = run_experiment("upc-distmem", tree=TREE, threads=4,
                          preset="kittyhawk", chunk_size=4)
    assert slow.sim_time > fast.sim_time


def test_explicit_config_overrides_chunk_size():
    cfg = WsConfig(chunk_size=16)
    res = run_experiment("upc-distmem", tree=TREE, threads=4,
                         chunk_size=2, config=cfg)
    assert res.chunk_size == 16


def test_tracer_collects_protocol_events():
    tracer = TraceSink()
    run_experiment("upc-distmem", tree=TREE, threads=4, chunk_size=2,
                   tracer=tracer)
    kinds = {r.kind for r in tracer.records}
    assert "release" in kinds or "steal" in kinds


def test_higher_latency_lowers_throughput():
    base = run_experiment("upc-distmem", tree=TREE, threads=8, chunk_size=2,
                          preset="kittyhawk")
    slow_net = KITTYHAWK.with_overrides(
        remote_shared_ref=50e-6, rdma_latency=80e-6, lock_overhead=100e-6)
    slow = run_experiment("upc-distmem", tree=TREE, threads=8, chunk_size=2,
                          net=slow_net)
    assert slow.sim_time > base.sim_time
