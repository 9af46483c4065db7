"""Tests for the steal-policy ablation override in WsConfig."""

import pytest

from repro import TreeParams, WsConfig, run_experiment
from repro.errors import ConfigError

TREE = TreeParams.binomial(b0=150, m=2, q=0.49, seed=0)


def test_invalid_policy_rejected():
    # "all" became a registered policy (greedy adversary); use a key
    # that stays unknown and check the message lists the alternatives.
    with pytest.raises(ConfigError, match=r"registered: \['all', 'half', 'one'\]"):
        WsConfig(steal_policy="most")


def test_distmem_forced_to_steal_one():
    """distmem natively steals half; force steal-one and observe
    exactly one chunk per successful steal."""
    cfg = WsConfig(chunk_size=2, steal_policy="one")
    res = run_experiment("upc-distmem", tree=TREE, threads=8,
                         preset="kittyhawk", config=cfg, verify=True)
    assert res.stats.chunks_stolen == res.stats.steals_ok


def test_term_forced_to_steal_half():
    """upc-term natively steals one; force steal-half and chunks per
    steal rises above 1."""
    cfg = WsConfig(chunk_size=2, steal_policy="half")
    res = run_experiment("upc-term", tree=TREE, threads=8,
                         preset="kittyhawk", config=cfg, verify=True)
    assert res.stats.chunks_stolen > res.stats.steals_ok


def test_none_keeps_native_policies():
    cfg = WsConfig(chunk_size=2)
    half = run_experiment("upc-distmem", tree=TREE, threads=8,
                          preset="kittyhawk", config=cfg, verify=True)
    assert half.stats.chunks_stolen >= half.stats.steals_ok


def test_override_does_not_break_conservation():
    # mpi-ws hosts "one" only: one chunk per WORK message
    for policy, algs in (("one", ("upc-sharedmem", "upc-distmem", "mpi-ws")),
                         ("half", ("upc-sharedmem", "upc-distmem"))):
        cfg = WsConfig(chunk_size=1, steal_policy=policy)
        for alg in algs:
            run_experiment(alg, tree=TREE, threads=6, preset="kittyhawk",
                           config=cfg, verify=True)
