"""MaterializedTree must be indistinguishable from the implicit Tree."""

import sys
import threading
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import run_experiment
from repro.errors import ConfigError
from repro.harness import parallel, runner
from repro.uts import Tree, TreeParams, count_tree, materialized
from repro.uts.materialized import (DEFAULT_NODE_CAP, MaterializedTree,
                                    expected_node_count, materialize,
                                    node_cap, tree_for)

BINOMIAL = TreeParams.binomial(b0=25, m=2, q=0.44, seed=7)
GEOMETRIC = TreeParams.geometric(b0=3, gen_mx=5, seed=0)
GEO_CYCLIC = TreeParams.geometric(b0=2, gen_mx=4, seed=1, geo_shape="cyclic")
SPLITMIX = TreeParams.binomial(b0=20, m=2, q=0.4, seed=3, engine="splitmix")

ALL_SHAPES = [BINOMIAL, GEOMETRIC, GEO_CYCLIC, SPLITMIX]


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty process-wide tree cache for one test; the suite's own
    is put back afterwards."""
    monkeypatch.setattr(materialized, "_TREES", OrderedDict())
    return materialized._TREES


@pytest.mark.parametrize("params", ALL_SHAPES,
                         ids=lambda p: f"{p.shape}-{p.engine}-{p.geo_shape}")
class TestEquivalence:
    def test_identical_dfs_sequence(self, params):
        implicit = Tree(params)
        mat = materialize(params)
        assert isinstance(mat, MaterializedTree)
        assert list(mat.iter_dfs()) == list(implicit.iter_dfs())

    def test_identical_children_everywhere(self, params):
        implicit = Tree(params)
        mat = materialize(params)
        for node in implicit.iter_dfs():
            assert mat.children(node) == implicit.children(node)
            assert mat.num_children(node) == implicit.num_children(node)

    def test_root_identical(self, params):
        assert materialize(params).root() == Tree(params).root()

    def test_describe_identical(self, params):
        assert materialize(params).describe() == params.describe()


#: Small trees of every shape x engine the generator knows.
SHAPES = st.one_of(
    st.builds(TreeParams.binomial,
              b0=st.integers(1, 8), m=st.just(2), q=st.floats(0.0, 0.45),
              seed=st.integers(0, 2 ** 20),
              engine=st.sampled_from(["sha1", "sha1-pure", "splitmix"])),
    st.builds(TreeParams.geometric,
              b0=st.integers(1, 3), gen_mx=st.integers(1, 5),
              seed=st.integers(0, 2 ** 20),
              geo_shape=st.sampled_from(
                  ["linear", "fixed", "expdec", "cyclic"]),
              engine=st.sampled_from(["sha1", "splitmix"])),
)


class TestStats:
    """``expected_node_count`` reads a materialized tree's ``n_nodes``
    instead of traversing; ``count_tree`` is the independent reference
    that makes that safe."""

    @given(params=SHAPES)
    @settings(max_examples=60, deadline=None)
    def test_node_count_matches_sequential(self, params):
        stats = count_tree(params)
        # REPRO_FASTPATH=0 forces the scalar breadth-first loop; unset,
        # the numpy builders run where numpy is present.
        for fastpath in ("0", None):
            with pytest.MonkeyPatch.context() as mp:
                mp.delenv("REPRO_FASTPATH", raising=False)
                if fastpath is not None:
                    mp.setenv("REPRO_FASTPATH", fastpath)
                mat = materialize(params, max_nodes=1_000_000)
            assert isinstance(mat, MaterializedTree)
            assert (mat.n_nodes, mat.n_leaves, mat.max_depth) \
                == (stats.n_nodes, stats.n_leaves, stats.max_depth)


class TestFallback:
    def test_build_over_cap_returns_none(self):
        assert MaterializedTree.build(BINOMIAL, max_nodes=10) is None

    def test_materialize_over_cap_returns_implicit_tree(self):
        tree = materialize(BINOMIAL, max_nodes=10)
        assert isinstance(tree, Tree)
        # Still a fully functional search space.
        assert len(tree.children(tree.root())) == BINOMIAL.b0

    def test_cache_disabled_by_env(self, monkeypatch, fresh_cache):
        monkeypatch.setenv("REPRO_TREE_CACHE_CAP", "0")
        assert node_cap() == 0
        assert type(materialize(BINOMIAL)) is Tree
        assert type(tree_for(BINOMIAL)) is Tree
        assert not fresh_cache
        res = run_experiment("upc-distmem", tree=BINOMIAL, threads=2,
                             verify=True)
        assert res.total_nodes == count_tree(BINOMIAL).n_nodes

    def test_cap_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TREE_CACHE_CAP", "17")
        assert node_cap() == 17
        monkeypatch.delenv("REPRO_TREE_CACHE_CAP")
        assert node_cap() == DEFAULT_NODE_CAP

    @pytest.mark.parametrize("raw", ["abc", "-1", ""])
    def test_cap_rejects_garbage_by_name(self, monkeypatch, raw, fresh_cache):
        monkeypatch.setenv("REPRO_TREE_CACHE_CAP", raw)
        with pytest.raises(ConfigError,
                           match=f"REPRO_TREE_CACHE_CAP={raw!r}"):
            node_cap()
        with pytest.raises(ConfigError, match="REPRO_TREE_CACHE_CAP"):
            run_experiment("upc-distmem", tree=BINOMIAL, threads=2)

    def test_foreign_node_delegates_to_implicit(self):
        """A node from a different tree still expands correctly."""
        mat = materialize(BINOMIAL)
        other = Tree(BINOMIAL.with_seed(12345))
        foreign = other.root()
        assert mat.children(foreign) == other.children(foreign)
        assert mat.num_children(foreign) == other.num_children(foreign)


def _cached_nodes():
    return sum(getattr(t, "n_nodes", 1) for t in materialized._TREES.values())


#: Eight distinct trees of 43-207 nodes for the eviction properties.
POOL = [TreeParams.binomial(b0=20, m=2, q=0.4, seed=s) for s in range(8)]


class TestTreeCache:
    def test_one_tree_per_params(self, fresh_cache):
        tree = tree_for(BINOMIAL)
        assert tree_for(BINOMIAL) is tree
        assert isinstance(tree, MaterializedTree)
        assert expected_node_count(BINOMIAL) == tree.n_nodes \
            == count_tree(BINOMIAL).n_nodes

    def test_four_names_two_objects(self):
        assert runner.tree_for is parallel.shared_tree is tree_for
        assert runner.expected_node_count is parallel.expected_nodes_for \
            is expected_node_count

    @given(lookups=st.lists(st.integers(0, len(POOL) - 1), max_size=40),
           cap=st.integers(0, 600))
    @settings(max_examples=60, deadline=None)
    def test_node_budget_and_lru_order(self, lookups, cap):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(materialized, "_TREES", OrderedDict())
            mp.setenv("REPRO_TREE_CACHE_CAP", str(cap))
            model = {}  # params -> cost, least recently used first
            for i in lookups:
                params = POOL[i]
                tree_for(params)
                cost = model.pop(params, None)
                if cost is None:
                    n = count_tree(params).n_nodes
                    cost = n if n <= cap else 1
                    while model and sum(model.values()) + cost > cap:
                        del model[next(iter(model))]
                if cost <= cap:
                    model[params] = cost
                assert _cached_nodes() <= cap
                assert list(materialized._TREES) == list(model)

    def test_run_experiment_loop_stays_under_budget(self, monkeypatch,
                                                    fresh_cache):
        monkeypatch.setenv("REPRO_TREE_CACHE_CAP", "300")
        for params in POOL:
            run_experiment("upc-distmem", tree=params, threads=2,
                           verify=True)
            assert _cached_nodes() <= 300
        assert sum(expected_node_count(p) for p in POOL) > 300
        assert 0 < len(fresh_cache) < len(POOL)

    def test_concurrent_lookups_keep_the_budget(self, monkeypatch,
                                                fresh_cache):
        """More threads than cores, all evicting each other's trees."""
        monkeypatch.setenv("REPRO_TREE_CACHE_CAP", "300")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        errors = []

        def worker(offset):
            try:
                for i in range(200):
                    params = POOL[(i * offset) % len(POOL)]
                    assert tree_for(params).params == params
                    with materialized._TREES_LOCK:
                        assert _cached_nodes() <= 300
            except BaseException as exc:  # surfaced in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in (1, 3, 5, 7) * 2]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors

    def test_over_cap_tree_cached_as_implicit(self, monkeypatch, fresh_cache):
        monkeypatch.setenv("REPRO_TREE_CACHE_CAP", "10")
        calls = []
        real = Tree.children
        monkeypatch.setattr(
            Tree, "children",
            lambda self, node: calls.append(node) or real(self, node))
        tree = tree_for(BINOMIAL)
        assert type(tree) is Tree
        expanded = len(calls)
        assert tree_for(BINOMIAL) is tree
        assert len(calls) == expanded  # second lookup expands nothing
        assert expected_node_count(BINOMIAL) == count_tree(BINOMIAL).n_nodes


class TestBatchExpand:
    def test_matches_generic_loop(self):
        """batch_expand must mirror AlgorithmBase.explore_batch exactly."""
        implicit = Tree(BINOMIAL)
        mat = materialize(BINOMIAL)
        for limit, thresh in [(1, 4), (32, 8), (32, 10**9), (5, 2)]:
            a = [implicit.root()]
            b = [mat.root()]
            while a:
                # Generic loop (copied semantics from explore_batch).
                n = pushed = 0
                while a and n < limit:
                    kids = implicit.children(a.pop())
                    if kids:
                        a.extend(kids)
                        pushed += len(kids)
                    n += 1
                    if len(a) >= thresh:
                        break
                n2, pushed2 = mat.batch_expand(b, limit, thresh)
                assert (n, pushed) == (n2, pushed2)
                assert a == b


class TestGeoMemoization:
    def test_branching_factor_memoized(self):
        tree = Tree(GEO_CYCLIC)
        assert tree._geo_bf_cache == {}
        first = tree._geo_branching_factor(3)
        assert tree._geo_bf_cache == {3: first}
        # Cached value is served (poison the compute path to prove it).
        tree._geo_bf_cache[3] = 99.0
        assert tree._geo_branching_factor(3) == 99.0

    def test_memoized_values_correct(self):
        for params in (GEOMETRIC, GEO_CYCLIC):
            tree = Tree(params)
            for depth in range(0, 25):
                assert (tree._geo_branching_factor(depth)
                        == tree._geo_bf_compute(depth))
