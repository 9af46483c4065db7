"""Fault storms and the capped/jittered steal-retry schedule.

Pins three deterministic contracts added for service mode:

* storm grammar: ``storm(CLASS:MAG@T0..T1)`` items inside
  :func:`parse_fault_spec`, plus ``StormSpec`` validation;
* kill-storm expansion: victims and kill times are drawn from the
  ``storm.kill`` substream at :class:`FaultRuntime` construction, so
  the schedule is part of the plan's identity;
* ``next_steal_timeout``: doubling to a hard cap, optionally perturbed
  by a deterministic per-seed jitter factor.
"""

import pytest

from repro import run_experiment
from repro.errors import ConfigError
from repro.faults import FaultPlan, FaultRuntime, StormSpec, parse_fault_spec
from repro.harness.runner import expected_node_count
from repro.obs import TraceSink

from tests.faults.conftest import TREE


class _StubMachine:
    """Just enough machine for FaultRuntime construction."""

    def __init__(self, n_threads=8):
        self.n_threads = n_threads


def _runtime(plan, n_threads=8):
    return FaultRuntime(plan, _StubMachine(n_threads))


# -- grammar ---------------------------------------------------------------

class TestGrammar:
    def test_kill_storm_round_trip(self):
        plan = parse_fault_spec("storm(kill:3@t=5ms..6ms)")
        assert plan.storms == (
            StormSpec(category="kill", magnitude=3.0, t0=5e-3, t1=6e-3),)
        assert plan.storms[0].describe() == "storm(kill:3@t=0.005..0.006)"

    def test_t_prefix_optional_and_units_mix(self):
        plan = parse_fault_spec("storm(drop:0.5@100us..2ms)")
        s = plan.storms[0]
        assert (s.category, s.magnitude) == ("drop", 0.5)
        assert s.t0 == pytest.approx(100e-6)
        assert s.t1 == pytest.approx(2e-3)

    def test_storm_composes_with_plain_keys(self):
        plan = parse_fault_spec(
            "kill=2@0.001,storm(kill:1@t=2ms..3ms),retry-jitter=0.25")
        assert plan.kill_ranks == (2,)
        assert len(plan.storms) == 1
        assert plan.steal_retry_jitter == 0.25

    @pytest.mark.parametrize("spec,match", [
        ("storm(kill:3@t=5ms..6ms", "unterminated"),
        ("storm(kill3@t=5ms..6ms)", "CLASS:MAGNITUDE"),
        ("storm(kill:3)", "window"),
        ("storm(kill:3@t=5ms)", "T0..T1"),
    ])
    def test_malformed_storms_rejected(self, spec, match):
        with pytest.raises(ConfigError, match=match):
            parse_fault_spec(spec)

    def test_unknown_storm_class_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_fault_spec("storm(quake:3@t=5ms..6ms)")

    @pytest.mark.parametrize("kwargs", [
        {"category": "kill", "magnitude": 0, "t0": 0.0, "t1": 1.0},
        {"category": "kill", "magnitude": 1.5, "t0": 0.0, "t1": 1.0},
        {"category": "drop", "magnitude": 2.0, "t0": 0.0, "t1": 1.0},
        {"category": "kill", "magnitude": 1, "t0": 1.0, "t1": 1.0},
        {"category": "kill", "magnitude": 1, "t0": -1.0, "t1": 1.0},
    ])
    def test_spec_validation(self, kwargs):
        with pytest.raises(ConfigError):
            StormSpec(**kwargs)

    def test_retry_jitter_validated(self):
        with pytest.raises(ConfigError, match="steal_retry_jitter"):
            FaultPlan(steal_retry_jitter=1.5)


# -- kill-storm expansion --------------------------------------------------

class TestKillExpansion:
    PLAN = parse_fault_spec("storm(kill:3@t=5ms..6ms)")

    def test_schedule_shape(self):
        sched = _runtime(self.PLAN).kill_schedule
        assert len(sched) == 3
        ranks = [r for r, _ in sched]
        assert len(set(ranks)) == 3  # distinct victims
        assert all(1 <= r < 8 for r in ranks)  # rank 0 never drawn
        assert all(5e-3 <= t < 6e-3 for _, t in sched)

    def test_expansion_is_seed_deterministic(self):
        import dataclasses
        assert (_runtime(self.PLAN).kill_schedule
                == _runtime(self.PLAN).kill_schedule)
        other = dataclasses.replace(self.PLAN, seed=99)
        assert _runtime(other).kill_schedule != _runtime(self.PLAN).kill_schedule

    def test_storm_kills_stack_on_plan_kills(self):
        plan = parse_fault_spec("kill=3@0.001,storm(kill:2@t=5ms..6ms)")
        sched = _runtime(plan).kill_schedule
        assert sched[0] == (3, 0.001)
        ranks = [r for r, _ in sched]
        assert len(set(ranks)) == 3  # storm never re-kills rank 3

    def test_overdrawn_pool_rejected(self):
        with pytest.raises(ConfigError, match="killable"):
            _runtime(parse_fault_spec("storm(kill:4@t=5ms..6ms)"),
                     n_threads=4)  # pool is ranks 1..3


# -- steal-retry schedule --------------------------------------------------

class TestRetrySchedule:
    def _schedule(self, plan, n=6):
        rt = _runtime(plan)
        out, cur = [], plan.steal_timeout
        for _ in range(n):
            cur = rt.next_steal_timeout(cur)
            out.append(cur)
        return out

    def test_default_schedule_pinned(self):
        """jitter=0: exact doubling from 300us, hard-capped at 2400us."""
        assert self._schedule(FaultPlan()) == [
            600e-6, 1200e-6, 2400e-6, 2400e-6, 2400e-6, 2400e-6]

    def test_jitter_bounds_and_cap(self):
        plan = FaultPlan(steal_retry_jitter=0.5, seed=11)
        cur = plan.steal_timeout
        rt = _runtime(plan)
        for _ in range(64):
            nxt = rt.next_steal_timeout(cur)
            assert nxt <= plan.steal_timeout_max
            if nxt < plan.steal_timeout_max:
                # Within the [1 - j/2, 1 + j/2) factor band of 2x.
                assert 2.0 * cur * 0.75 <= nxt < 2.0 * cur * 1.25
            cur = min(nxt, plan.steal_timeout)  # keep exercising the band

    def test_jitter_is_seed_deterministic(self):
        plan = FaultPlan(steal_retry_jitter=0.25, seed=5)
        assert self._schedule(plan, 8) == self._schedule(plan, 8)
        import dataclasses
        other = dataclasses.replace(plan, seed=6)
        assert self._schedule(other, 8) != self._schedule(plan, 8)

    def test_zero_jitter_consumes_no_draws(self):
        """The historical schedule must not advance the retry stream."""
        rt = _runtime(FaultPlan())
        before = rt._retry.next_u64()
        rt2 = _runtime(FaultPlan())
        rt2.next_steal_timeout(300e-6)
        rt2.next_steal_timeout(600e-6)
        assert rt2._retry.next_u64() == before


# -- rate-class storms, run ------------------------------------------------

class TestRateStormsRun:
    """A rate storm with no base rate injects inside its window only:
    each class is run once on a variant whose recovery path it
    exercises, and the ``fault.*`` trace records say when it struck."""

    WINDOW = (50e-6, 250e-6)

    @pytest.mark.parametrize("algorithm, category, magnitude", [
        ("mpi-ws", "drop", 0.3),
        ("mpi-ws", "dup", 0.3),
        ("mpi-ws", "delay", 0.5),
        ("upc-term-rapdif", "stall", 0.5),
        ("upc-distmem", "stale", 0.5),
    ])
    def test_injections_fall_inside_the_window(self, algorithm, category,
                                               magnitude):
        t0, t1 = self.WINDOW
        sink = TraceSink()
        res = run_experiment(
            algorithm, tree=TREE, threads=8, chunk_size=4, tracer=sink,
            faults=parse_fault_spec(
                f"storm({category}:{magnitude}@{t0}..{t1})", seed=0))
        struck = [e.time for e in sink.events()
                  if e.kind == f"fault.{category}"]
        assert struck, "the storm never injected"
        assert all(t0 <= t < t1 for t in struck)
        assert res.sim_time > t1  # the run outlived the window
        # nothing but the storm's class was injected, nothing was lost
        assert {e.kind for e in sink.events()
                if e.kind.startswith("fault.")} == {f"fault.{category}"}
        assert res.lost_work == 0
        assert res.total_nodes == expected_node_count(TREE)
