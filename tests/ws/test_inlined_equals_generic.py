"""The inlined fault-free phases are bit-identical to the generic ones.

``algo._fast`` (``machine.faults is None``) lets the hot loops yield
precomputed Timeouts, read staleable slots directly and -- in the
lock-based working phase -- run the own-lock transaction inline instead
of through ``release``/``reacquire``.  Every such shortcut is claimed to
execute the generic path's exact schedule; this file pins the claim for
all eight variants by forcing ``_fast`` off on a fault-free run and
comparing against the default run.  (With the extension built the
default run is the compiled one, so the same cells also pin C against
the generic generators.)

The second half pins the tree dimension: ``run_experiment(TreeParams)``
resolves to the cached :class:`MaterializedTree` (``batch_expand``, and
the fused phases when the extension is built), while an implicit
``Tree`` passed as an object takes ``explore_batch``'s generic
``children()`` loop -- the one every custom search space uses.  Both
must execute one schedule, faulted runs and their lost/duplicated-work
ledgers included.
"""

import dataclasses

import pytest

from repro import ALGORITHMS, TreeParams, WsConfig, run_experiment
from repro.faults.plan import parse_fault_spec
from repro.uts.materialized import MaterializedTree, tree_for
from repro.uts.tree import Tree
from repro.ws.algorithms.base import AlgorithmBase

TREE = TreeParams.binomial(b0=64, m=2, q=0.48, seed=1)


@pytest.fixture
def generic_phases(monkeypatch):
    """Force ``_fast`` to False on every algorithm instance: a data
    descriptor on the class shadows the instance attribute, so the
    constructor's assignment is ignored and every read -- algorithms
    and termination strategies alike -- sees False.  Returns the list
    of reads, so a test can prove the override was consulted."""
    reads = []

    def fget(self):
        reads.append(type(self).name)
        return False

    monkeypatch.setattr(AlgorithmBase, "_fast",
                        property(fget, lambda self, value: None),
                        raising=False)
    return reads


def _fingerprint(result):
    return (
        result.engine_events,
        result.sim_time,
        result.total_nodes,
        [(dataclasses.asdict(st) | {"timer": None}, st.timer.times,
          st.timer.transitions) for st in result.per_thread],
    )


def _run(variant, chunk_size):
    return _fingerprint(run_experiment(variant, TREE, threads=8,
                                       chunk_size=chunk_size))


@pytest.mark.parametrize("chunk_size", [2, 4])
@pytest.mark.parametrize("variant", sorted(ALGORITHMS))
def test_generic_phases_execute_the_inlined_schedule(
        variant, chunk_size, request):
    inlined = _run(variant, chunk_size)
    assert inlined[2] == 3009
    reads = request.getfixturevalue("generic_phases")
    generic = _run(variant, chunk_size)
    assert variant in reads, "the _fast override was never consulted"
    assert generic == inlined


# -- tree dimension: cached materialized tree vs implicit Tree object --------

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
