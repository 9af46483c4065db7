"""Cross-policy equivalences: the policy split must reproduce the
named variants bit-for-bit.

Each named variant is now a (steal, victim, termination) triple over
the same base protocol, so swapping one axis by config key must yield
the *identical schedule* -- same trace records, same event count, same
simulated time -- as the variant that hard-codes it.
"""

import pytest

from repro import TreeParams, run_experiment
from repro.obs import TraceSink
from repro.ws.config import WsConfig

TREE = TreeParams.binomial(b0=60, m=2, q=0.47, seed=4)


def traced_run(variant, cfg, threads=8, preset="kittyhawk"):
    tracer = TraceSink()
    res = run_experiment(variant, tree=TREE, threads=threads, preset=preset,
                         config=cfg, verify=True, tracer=tracer)
    return res, tracer.records


def assert_identical(pair_a, pair_b):
    res_a, trace_a = pair_a
    res_b, trace_b = pair_b
    assert res_a.engine_events == res_b.engine_events
    assert res_a.sim_time == res_b.sim_time
    assert res_a.total_nodes == res_b.total_nodes
    assert trace_a == trace_b


@pytest.mark.parametrize("threads", [4, 8])
def test_distmem_plus_hierarchical_is_distmem_hier(threads):
    cfg = WsConfig(chunk_size=4)
    hier = traced_run("upc-distmem-hier", cfg, threads)
    composed = traced_run(
        "upc-distmem", WsConfig(chunk_size=4, victim_policy="hierarchical"),
        threads)
    assert_identical(hier, composed)


def test_sharedmem_plus_streamlined_is_upc_term():
    native = traced_run("upc-term", WsConfig(chunk_size=4))
    composed = traced_run(
        "upc-sharedmem",
        WsConfig(chunk_size=4, termination_policy="streamlined"))
    assert_identical(native, composed)


def test_term_plus_cancelable_barrier_is_sharedmem():
    native = traced_run("upc-sharedmem", WsConfig(chunk_size=4))
    composed = traced_run(
        "upc-term",
        WsConfig(chunk_size=4, termination_policy="cancelable-barrier"))
    assert_identical(native, composed)


def test_native_policy_keys_are_no_ops():
    """Spelling out a variant's own defaults must not change the
    schedule (the keys resolve to the same factories)."""
    plain = traced_run("upc-term", WsConfig(chunk_size=4))
    spelled = traced_run(
        "upc-term", WsConfig(chunk_size=4, steal_policy="one",
                             victim_policy="uniform",
                             termination_policy="streamlined"))
    assert_identical(plain, spelled)


def test_rapdif_is_term_plus_steal_half():
    native = traced_run("upc-term-rapdif", WsConfig(chunk_size=4))
    composed = traced_run(
        "upc-term", WsConfig(chunk_size=4, steal_policy="half"))
    assert_identical(native, composed)
