"""Tie-break policies: the canonical schedule is one point in the
explored space, and the default path never changes.

The contract (docs/correctness.md):

* ``tie_break=None`` (the default) and the explicit identity policy
  :class:`FifoTieBreak` execute the exact same schedule -- the policy
  machinery adds schedules, it never perturbs the pinned one;
* :class:`RandomTieBreak` is deterministic per seed and actually
  reorders same-timestamp batches (distinct seeds diverge);
* :class:`DelayTieBreak` with no deferred seqs is the identity.
"""

import pytest

from repro import run_experiment, TreeParams
from repro.check import DelayTieBreak, FifoTieBreak, RandomTieBreak
from repro.obs import TraceSink


def _small_run(tie_break=None, variant="upc-sharedmem"):
    tracer = TraceSink()
    res = run_experiment(
        variant,
        tree=TreeParams.binomial(b0=64, m=2, q=0.48, seed=1),
        threads=8, preset="kittyhawk", chunk_size=4, verify=True,
        tracer=tracer, tie_break=tie_break,
    )
    return res, tuple(tracer.records)


def test_fifo_policy_reproduces_canonical_schedule():
    """The generic policy loop with the identity key executes the exact
    schedule the inlined FIFO loop executes."""
    base, base_trace = _small_run(None)
    fifo, fifo_trace = _small_run(FifoTieBreak())
    assert fifo.engine_events == base.engine_events
    assert fifo.total_nodes == base.total_nodes
    assert fifo.sim_time == base.sim_time
    assert fifo_trace == base_trace


def test_empty_delay_set_is_identity():
    base, base_trace = _small_run(None)
    res, trace = _small_run(DelayTieBreak(()))
    assert res.engine_events == base.engine_events
    assert res.sim_time == base.sim_time
    assert trace == base_trace


def test_random_tiebreak_is_deterministic_per_seed():
    first, first_trace = _small_run(RandomTieBreak(7))
    again, again_trace = _small_run(RandomTieBreak(7))
    assert again.engine_events == first.engine_events
    assert again.sim_time == first.sim_time
    assert again_trace == first_trace


def test_random_tiebreak_explores_distinct_schedules():
    """Distinct seeds permute same-timestamp batches differently: the
    shared-memory variant's dense t=0 contention makes every seed's
    trace distinguishable from the canonical one."""
    _, base_trace = _small_run(None)
    divergent = 0
    for seed in range(4):
        _, trace = _small_run(RandomTieBreak(seed))
        divergent += trace != base_trace
    assert divergent > 0


def test_permuted_schedules_preserve_the_answer():
    """Schedule freedom changes orderings, never the tree count."""
    base, _ = _small_run(None)
    for seed in range(3):
        res, _ = _small_run(RandomTieBreak(seed))
        assert res.total_nodes == base.total_nodes


def test_random_keys_are_injective_and_comparable():
    tb = RandomTieBreak(3)
    keys = [tb(seq) for seq in range(10_000)]
    assert len(set(keys)) == len(keys)
    assert sorted(keys)  # total order exists (no TypeError)
    # Replays mint identical keys: the permutation is the seed's alone.
    assert keys == [RandomTieBreak(3)(seq) for seq in range(10_000)]
    assert keys != [RandomTieBreak(4)(seq) for seq in range(10_000)]


def test_delay_tiebreak_defers_behind_same_time_peers():
    tb = DelayTieBreak((5,))
    assert tb(5) > tb(4_000_000)  # deferred seq sorts after every peer
    assert tb(4) == 4 and tb(6) == 6  # everything else is FIFO


def test_engine_level_reordering():
    """Two processes colliding at one timestamp run in seq order by
    default and in permuted order under some random seed."""
    from repro.sim.engine import Simulator, Timeout

    def proc(log, tag):
        yield Timeout(1.0)
        log.append(tag)

    def order(tie_break):
        sim = Simulator(tie_break=tie_break)
        log = []
        for tag in "abcd":
            sim.spawn(proc(log, tag), name=tag)
        sim.run()
        return "".join(log)

    assert order(None) == "abcd"
    orders = {order(RandomTieBreak(s)) for s in range(16)}
    assert "abcd" in {order(None)} | orders  # sanity: canonical reachable
    assert len(orders) > 1  # and the space is actually explored
