"""Policy/scenario registry error paths and config validation."""

import math
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.scenarios import SCENARIOS, get_scenario
from repro.scenarios.adversaries import parse_adversaries, parse_adversary
from repro.scenarios.profiles import build_speed_factors
from repro.ws.config import WsConfig
from repro.ws.registry import (STEAL_AMOUNTS, TERMINATION_POLICIES,
                               VICTIM_POLICIES)


class TestPolicyRegistries:
    def test_registered_keys(self):
        assert sorted(STEAL_AMOUNTS.names()) == ["all", "half", "one"]
        assert sorted(VICTIM_POLICIES.names()) == ["hierarchical", "uniform"]
        assert sorted(TERMINATION_POLICIES.names()) == [
            "cancelable-barrier", "none", "streamlined", "token"]

    def test_unknown_key_names_alternatives(self):
        with pytest.raises(ConfigError,
                           match=r"unknown steal-amount policy 'most'; "
                                 r"registered: \['all', 'half', 'one'\]"):
            STEAL_AMOUNTS.get("most")

    def test_contains(self):
        assert "hierarchical" in VICTIM_POLICIES
        assert "nearest" not in VICTIM_POLICIES


class TestWsConfigValidation:
    def test_unknown_victim_policy(self):
        with pytest.raises(ConfigError, match="unknown victim policy"):
            WsConfig(victim_policy="nearest")

    def test_unknown_termination_policy(self):
        with pytest.raises(ConfigError, match="unknown termination policy"):
            WsConfig(termination_policy="tokenring")

    def test_with_chunk_size_revalidates(self):
        """with_chunk_size rebuilds the config, so a policy key that
        went stale (e.g. registry edited between construct and use)
        fails at the derive site, not deep in the run."""
        cfg = WsConfig(chunk_size=4, steal_policy="half")
        assert cfg.with_chunk_size(8).steal_policy == "half"
        try:
            STEAL_AMOUNTS.register("transient", lambda n: n)
            cfg2 = WsConfig(chunk_size=4, steal_policy="transient")
        finally:
            del STEAL_AMOUNTS._entries["transient"]
        with pytest.raises(ConfigError, match="unknown steal-amount policy"):
            cfg2.with_chunk_size(8)

    @pytest.mark.parametrize("bad", [-2.0, True, math.inf, -math.inf,
                                     math.nan], ids=repr)
    def test_bad_speed_factors(self, bad):
        with pytest.raises(ConfigError, match=r"speed_factors\[1\]"):
            WsConfig(speed_factors=(1.0, bad))

    @pytest.mark.parametrize("pair, match", [
        ((0, "ransom"), "unknown adversary"),
        ((-1, "slow"), "rank >= 0"),
        ((0, "slow:inf"), "finite"),
        ((0, "dup:1"), "'dup' takes no parameter"),
        ((0, "greedy:2"), "'greedy' takes no parameter"),
    ], ids=repr)
    def test_bad_adversaries(self, pair, match):
        with pytest.raises(ConfigError, match=match):
            WsConfig(adversaries=(pair,))


class TestIncompatibleTermination:
    def test_distmem_rejects_cancelable_barrier(self):
        """upc-distmem is lock-free: the cancelable barrier's
        release-reset hook has nowhere to fire, so the pairing must
        fail loudly at construction."""
        from repro import TreeParams, run_experiment
        tree = TreeParams.binomial(b0=8, m=2, q=0.3, seed=1)
        with pytest.raises(ConfigError,
                           match=r"upc-distmem supports termination "
                                 r"policies \['streamlined'\]"):
            run_experiment(
                "upc-distmem", tree=tree, threads=2,
                config=WsConfig(chunk_size=2,
                                termination_policy="cancelable-barrier"))

    def test_mpi_rejects_barriers(self):
        from repro import TreeParams, run_experiment
        tree = TreeParams.binomial(b0=8, m=2, q=0.3, seed=1)
        with pytest.raises(ConfigError, match="mpi-ws supports"):
            run_experiment(
                "mpi-ws", tree=tree, threads=2,
                config=WsConfig(chunk_size=2,
                                termination_policy="streamlined"))


class TestScenarioRegistry:
    def test_catalog_names(self):
        assert "baseline" in SCENARIOS
        assert len(SCENARIOS) >= 10

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="unknown scenario 'numa'"):
            get_scenario("numa")

    def test_apply_is_pure_overlay(self):
        base = WsConfig(chunk_size=4)
        assert get_scenario("baseline").apply(base, 8) is base
        cfg = get_scenario("hostile-mix").apply(base, 8)
        assert base.adversaries is None  # base untouched
        assert cfg.adversaries == ((1, "slow:4"), (2, "greedy"), (3, "dup"))

    def test_apply_expands_speed_profile(self):
        cfg = get_scenario("mixed-speed").apply(WsConfig(chunk_size=4), 4)
        assert cfg.speed_factors == (1.0, 1.0, 4.0, 4.0)


class TestSpecGrammars:
    def test_profile_specs(self):
        assert build_speed_factors("uniform", 3) == (1.0, 1.0, 1.0)
        assert build_speed_factors("alternating:2", 4) == (1.0, 2.0, 1.0, 2.0)
        with pytest.raises(ConfigError):
            build_speed_factors("bimodal", 4)
        with pytest.raises(ConfigError):
            build_speed_factors("half-slow:0", 4)

    @pytest.mark.parametrize("spec", [
        "graded:inf", "half-slow:inf", "alternating:1e400", "graded:nan",
        "half-slow:-inf"])
    def test_profile_factor_must_be_finite(self, spec):
        with pytest.raises(ConfigError, match="finite number > 0"):
            build_speed_factors(spec, 4)

    @pytest.mark.parametrize("spec, match", [
        ("slow:inf", "finite number"),
        ("slow:-inf", "finite number"),
        ("slow:nan", "finite number"),
        ("slow:1e400", "finite number"),
        ("greedy:2", "adversary 'greedy' takes no parameter"),
        ("dup:1", "adversary 'dup' takes no parameter"),
    ])
    def test_adversary_parameter_is_checked_by_kind(self, spec, match):
        with pytest.raises(ConfigError, match=match):
            parse_adversary(spec)

    def test_adversary_specs(self):
        assert parse_adversaries("slow:2@1;dup@last", 8) == (
            (1, "slow:2"), (7, "dup"))
        assert parse_adversaries("greedy@mid", 8)[0][0] == 4
        with pytest.raises(ConfigError, match="unknown adversary"):
            parse_adversary("ransom")
        with pytest.raises(ConfigError):
            parse_adversaries("slow@9", 8)  # rank out of range


def test_every_scenario_is_in_the_catalog_doc():
    """docs/scenarios.md names every registered scenario, in backticks."""
    doc = (Path(__file__).resolve().parents[2] / "docs" / "scenarios.md"
           ).read_text(encoding="utf-8")
    assert [name for name in sorted(SCENARIOS) if f"`{name}`" not in doc] == []
