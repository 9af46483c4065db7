"""The cached materialized tree executes the implicit tree's schedule.

``run_experiment(TreeParams)`` resolves to the cached
:class:`MaterializedTree` (``batch_expand``, and the fused phases when
the extension is built), while an implicit ``Tree`` passed as an object
takes ``explore_batch``'s generic ``children()`` loop -- the one every
custom search space uses.  Both must execute one schedule, faulted runs
and their lost/duplicated-work ledgers included.  (Faulted and
fault-free runs share one Working state; the faulted cells of the
golden corpus pin it.)
"""

import dataclasses

import pytest

from repro import ALGORITHMS, TreeParams, WsConfig, run_experiment
from repro.faults.plan import parse_fault_spec
from repro.uts.materialized import MaterializedTree, tree_for
from repro.uts.tree import Tree

TREE = TreeParams.binomial(b0=64, m=2, q=0.48, seed=1)


def _fingerprint(result):
    return (
        result.engine_events,
        result.sim_time,
        result.total_nodes,
        [(dataclasses.asdict(st) | {"timer": None}, st.timer.times,
          st.timer.transitions) for st in result.per_thread],
    )


def _tree_kinds(variant, **kw):
    """The same cell on ``TreeParams`` (cache) and on ``Tree(params)``."""
    assert isinstance(tree_for(TREE), MaterializedTree)
    cached = run_experiment(variant, TREE, threads=8, **kw)
    implicit = run_experiment(variant, Tree(TREE), threads=8, **kw)
    assert _fingerprint(cached) == _fingerprint(implicit)
    return cached, implicit


@pytest.mark.parametrize("idle", ["poll", "park"])
@pytest.mark.parametrize("variant", sorted(ALGORITHMS))
def test_materialized_tree_executes_the_implicit_schedule(variant, idle):
    cached, _ = _tree_kinds(
        variant, config=WsConfig(chunk_size=4, idle_strategy=idle))
    assert cached.total_nodes == 3009


@pytest.mark.parametrize("variant", sorted(ALGORITHMS))
def test_faulted_ledgers_agree_across_tree_kinds(variant):
    # The relaxed variants refuse the fail-stop kill and take stale
    # plans (their duplicate-work ledger); every other variant takes
    # the kill, whose lost subtrees are sized by walking the tree after
    # the run.
    plan = parse_fault_spec("kill=3@103us,kill=5@120us", seed=0)
    if ALGORITHMS[variant].refusal(WsConfig(faults=plan)):
        plan = parse_fault_spec("stale=0.4,stale-window=60us", seed=0)
    cached, implicit = _tree_kinds(variant, chunk_size=4, faults=plan)
    assert (cached.lost_work, cached.dup_work) \
        == (implicit.lost_work, implicit.dup_work)
    assert cached.fault_counters == implicit.fault_counters
    assert cached.total_nodes + cached.lost_work \
        == 3009 + cached.dup_work
    # tree-split keeps no duplicate ledger; every other cell must have
    # something in the ledger it compares.
    assert cached.lost_work + cached.dup_work > 0 or variant == "tree-split"
