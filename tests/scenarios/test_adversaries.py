"""Adversarial workers degrade performance but never break the
protocol: node conservation, invariants I1-I5, and clean termination
must hold under every adversary class, on every variant."""

import pytest

from repro import TreeParams, run_experiment
from repro.check import check_run
from repro.check.invariants import InvariantMonitor
from repro.errors import ConfigError
from repro.scenarios import SCENARIOS, check_scenario, parse_adversaries
from repro.ws.config import WsConfig

TREE = TreeParams.binomial(b0=60, m=2, q=0.47, seed=4)
VARIANTS = ("upc-sharedmem", "upc-term", "upc-term-rapdif",
            "upc-distmem", "upc-distmem-hier", "mpi-ws")
ADVERSARY_SPECS = ("slow:8@1", "greedy@1,2", "dup@1,2",
                   "slow:4@1;greedy@2;dup@3")
#: Clauses the grammar refuses by name: a parameter that is not a
#: finite number, and a parameter on a kind that takes none.
BAD_SPECS = (("slow:inf@1", "finite number"),
             ("slow:1e400@1", "finite number"),
             ("slow:nan@1", "finite number"),
             ("greedy:2@1", "adversary 'greedy' takes no parameter"),
             ("slow:4@1;dup:1@2", "adversary 'dup' takes no parameter"))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("spec", ADVERSARY_SPECS)
def test_conservation_under_adversaries(variant, spec):
    monitor = InvariantMonitor()
    cfg = WsConfig(chunk_size=4, adversaries=parse_adversaries(spec, 8))
    run_experiment(variant, tree=TREE, threads=8, config=cfg,
                   verify=True, tracer=monitor)
    monitor.final_check()


@pytest.mark.parametrize("spec, match", BAD_SPECS)
def test_bad_parameters_are_config_errors(spec, match):
    with pytest.raises(ConfigError, match=match):
        parse_adversaries(spec, 8)


@pytest.mark.parametrize("variant", ("upc-distmem", "upc-term"))
def test_adversaries_under_random_schedules(variant):
    """Adversary + non-canonical tie-break schedule, via the fuzzer's
    own cell machinery."""
    out = check_run(variant, scenario="hostile-mix", schedule_seed=7)
    assert out.ok, out.label()


def test_slow_worker_actually_slows():
    base = run_experiment("upc-distmem", tree=TREE, threads=8,
                          config=WsConfig(chunk_size=4), verify=True)
    slowed = run_experiment(
        "upc-distmem", tree=TREE, threads=8,
        config=WsConfig(chunk_size=4,
                        adversaries=parse_adversaries("slow:64@1", 8)),
        verify=True)
    assert slowed.sim_time > base.sim_time


def test_greedy_thief_takes_everything():
    res = run_experiment(
        "upc-distmem", tree=TREE, threads=8,
        config=WsConfig(chunk_size=2,
                        adversaries=parse_adversaries("greedy@1", 8)),
        verify=True)
    greedy = res.per_thread[1]
    if greedy.steals_ok:  # chunks per successful steal: all, not one
        assert greedy.chunks_stolen >= greedy.steals_ok


def test_dup_stealer_emits_redundant_attempts():
    from repro.obs import TraceSink
    tracer = TraceSink()
    run_experiment(
        "upc-distmem", tree=TREE, threads=8,
        config=WsConfig(chunk_size=4,
                        adversaries=parse_adversaries("dup@1,2", 8)),
        verify=True, tracer=tracer)
    dups = [r for r in tracer.records if r.args.get("dup") == 1]
    assert dups, "duplicating stealer never fired its redundant steal"
    assert all(r.rank in (1, 2) for r in dups)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_catalog_scenario_is_clean(name):
    out = check_scenario(name, "upc-distmem")
    assert out.ok, out.label()
