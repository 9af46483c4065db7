"""FaultPlan validation and the ``--faults`` spec grammar."""

import pytest

from repro.errors import ConfigError
from repro.faults import FaultPlan, parse_fault_spec
from repro.faults.plan import HEARTBEAT_MISS, StormSpec


class TestValidation:
    def test_defaults_are_valid_and_inert(self):
        plan = FaultPlan()
        assert not plan.has_message_faults
        assert not plan.has_kills

    @pytest.mark.parametrize("field", ["msg_drop_rate", "msg_dup_rate",
                                       "msg_delay_rate", "lock_stall_rate",
                                       "stale_read_rate"])
    def test_rates_clamped_to_unit_interval(self, field):
        with pytest.raises(ConfigError, match=field):
            FaultPlan(**{field: 1.5})
        with pytest.raises(ConfigError, match=field):
            FaultPlan(**{field: -0.1})

    def test_rank_zero_cannot_be_killed(self):
        with pytest.raises(ConfigError, match="rank 0"):
            FaultPlan(kill_ranks=(0,), kill_times=(1e-3,))

    def test_kill_tuples_must_pair_up(self):
        with pytest.raises(ConfigError, match="pair up"):
            FaultPlan(kill_ranks=(1, 2), kill_times=(1e-3,))

    def test_duplicate_kill_rank_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            FaultPlan(kill_ranks=(3, 3), kill_times=(1e-3, 2e-3))

    def test_negative_rank_and_time_rejected(self):
        with pytest.raises(ConfigError, match="negative rank"):
            FaultPlan(kill_ranks=(-1,), kill_times=(1e-3,))
        with pytest.raises(ConfigError, match="negative kill time"):
            FaultPlan(kill_ranks=(2,), kill_times=(-1e-3,))

    def test_slow_factor_must_be_slowdown(self):
        with pytest.raises(ConfigError, match="slow_factor"):
            FaultPlan(slow_ranks=(1,), slow_factor=0.5)

    def test_timeout_ordering(self):
        with pytest.raises(ConfigError, match="steal_timeout_max"):
            FaultPlan(steal_timeout=1e-3, steal_timeout_max=1e-4)

    @pytest.mark.parametrize("field", ["steal_timeout", "ring_timeout",
                                       "heartbeat_period", "check_period"])
    def test_periods_must_be_positive(self, field):
        with pytest.raises(ConfigError, match=field):
            FaultPlan(**{field: 0.0})

    def test_with_seed_returns_new_plan(self):
        plan = FaultPlan(msg_drop_rate=0.1)
        reseeded = plan.with_seed(99)
        assert reseeded.seed == 99
        assert reseeded.msg_drop_rate == 0.1
        assert plan.seed == 0  # original untouched (frozen)

    def test_suspect_after(self):
        plan = FaultPlan(heartbeat_period=10e-6)
        assert plan.suspect_after == 10e-6 * HEARTBEAT_MISS

    def test_hashable(self):
        assert len({FaultPlan(), FaultPlan(), FaultPlan(seed=1)}) == 2


class TestSpecGrammar:
    def test_rates(self):
        plan = parse_fault_spec("drop=0.05,dup=0.02,delay=0.1", seed=7)
        assert plan.seed == 7
        assert plan.msg_drop_rate == 0.05
        assert plan.msg_dup_rate == 0.02
        assert plan.msg_delay_rate == 0.1
        assert plan.has_message_faults

    def test_kills_repeatable(self):
        plan = parse_fault_spec("kill=3@0.002,kill=5@0.004")
        assert plan.kill_ranks == (3, 5)
        assert plan.kill_times == (0.002, 0.004)

    def test_unit_suffixes(self):
        plan = parse_fault_spec(
            "kill=3@2ms,timeout=500us,ring-timeout=1ms,heartbeat=50us,"
            "stall-time=300ns,timeout-max=1s")
        assert plan.kill_times == (pytest.approx(2e-3),)
        assert plan.steal_timeout == pytest.approx(500e-6)
        assert plan.ring_timeout == pytest.approx(1e-3)
        assert plan.heartbeat_period == pytest.approx(50e-6)
        assert plan.lock_stall_time == pytest.approx(300e-9)
        assert plan.steal_timeout_max == pytest.approx(1.0)

    def test_scientific_notation_not_mangled(self):
        # '2e-6' ends in neither a bare unit nor a digit+unit; the 's'
        # guard must not strip anything from it.
        plan = parse_fault_spec("stall-time=2e-6,stall=0.1")
        assert plan.lock_stall_time == pytest.approx(2e-6)

    def test_slow_items_share_one_factor(self):
        plan = parse_fault_spec("slow=2@4,slow=5@4")
        assert plan.slow_ranks == (2, 5)
        assert plan.slow_factor == 4.0
        with pytest.raises(ConfigError, match="one factor"):
            parse_fault_spec("slow=2@4,slow=5@8")

    def test_unknown_key_lists_known(self):
        with pytest.raises(ConfigError, match="unknown key 'boom'"):
            parse_fault_spec("boom=1")

    def test_malformed_items(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_fault_spec("drop")
        with pytest.raises(ConfigError, match="not a number"):
            parse_fault_spec("drop=lots")
        with pytest.raises(ConfigError, match="RANK@VALUE"):
            parse_fault_spec("kill=3")
        with pytest.raises(ConfigError, match="not an integer"):
            parse_fault_spec("kill=x@1ms")

    def test_empty_items_tolerated(self):
        plan = parse_fault_spec("drop=0.1,, ,dup=0.2,")
        assert plan.msg_drop_rate == 0.1
        assert plan.msg_dup_rate == 0.2

    def test_spec_values_flow_through_validation(self):
        with pytest.raises(ConfigError, match="rank 0"):
            parse_fault_spec("kill=0@1ms")

    @pytest.mark.parametrize("spec, named", [
        ("kill=1@nan", "kill='nan'"),
        ("kill=1@inf", "kill='inf'"),
        ("stale=0.3,stale-window=nan", "stale-window='nan'"),
        ("delay-max=infms", "delay-max='infms'"),
        ("heartbeat=1e999", "heartbeat='1e999'"),
        ("slow=1@nan", "slow='nan'"),
        ("drop=nan", "drop='nan'"),
        ("storm(kill:nan@1ms..2ms)", "storm='nan'"),
        ("storm(drop:0.5@1ms..inf)", "storm='inf'"),
    ])
    def test_non_finite_values_are_named(self, spec, named):
        with pytest.raises(ConfigError, match="is not a finite number") as err:
            parse_fault_spec(spec)
        assert named in str(err.value)


class TestNanProofRanges:
    """The range checks hold for API callers too: NaN compares False
    with everything, so ``x < 0`` let it through where ``not x >= 0``
    does not."""

    @pytest.mark.parametrize("kwargs", [
        {"msg_drop_rate": float("nan")},
        {"msg_dup_rate": float("nan")},
        {"msg_delay_rate": float("nan")},
        {"lock_stall_rate": float("nan")},
        {"stale_read_rate": float("nan")},
        {"lock_stall_time": float("nan")},
        {"heartbeat_period": float("nan")},
        {"check_period": float("nan")},
        {"steal_retry_jitter": float("nan")},
        {"stale_read_window": float("nan")},
        {"msg_delay_max": float("nan")},
        {"steal_timeout": float("nan")},
        {"steal_timeout_max": float("nan")},
        {"ring_timeout": float("nan")},
        {"slow_ranks": (1,), "slow_factor": float("nan")},
        {"kill_ranks": (1,), "kill_times": (float("nan"),)},
    ], ids=lambda kw: ",".join(kw))
    def test_nan_fails_the_range_check(self, kwargs):
        with pytest.raises(ConfigError):
            FaultPlan(**kwargs)

    @pytest.mark.parametrize("magnitude", [float("nan"), float("inf")])
    def test_kill_storm_count_must_be_finite(self, magnitude):
        with pytest.raises(ConfigError, match="positive integer"):
            StormSpec("kill", magnitude, 1e-3, 2e-3)
