"""Tests for implicit tree generation and the sequential traversal."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.uts import TreeParams, Tree, count_tree, sequential_search
from repro.uts.stats import (root_subtree_imbalance, stack_depth_profile,
                             subtree_size, subtree_sizes)


@pytest.fixture(scope="module")
def small_tree():
    return Tree(TreeParams.binomial(b0=10, m=2, q=0.4, seed=1))


class TestGeneration:
    def test_root_height_zero(self, small_tree):
        assert small_tree.root()[1] == 0

    def test_root_has_b0_children(self, small_tree):
        kids = small_tree.children(small_tree.root())
        assert len(kids) == 10
        assert all(h == 1 for _, h in kids)

    def test_children_deterministic(self, small_tree):
        r = small_tree.root()
        assert small_tree.children(r) == small_tree.children(r)

    def test_nonroot_children_zero_or_m(self, small_tree):
        counts = set()
        for node in small_tree.iter_dfs():
            if node[1] > 0:
                counts.add(small_tree.num_children(node))
        assert counts <= {0, 2}
        assert counts == {0, 2}  # a real tree has both kinds

    def test_distinct_seeds_distinct_trees(self):
        a = count_tree(TreeParams.binomial(b0=20, q=0.4, seed=0)).n_nodes
        b = count_tree(TreeParams.binomial(b0=20, q=0.4, seed=1)).n_nodes
        # Sizes *may* collide but with q=0.4, b0=20 it's vanishingly rare.
        ta = Tree(TreeParams.binomial(b0=20, q=0.4, seed=0))
        tb = Tree(TreeParams.binomial(b0=20, q=0.4, seed=1))
        assert ta.root()[0] != tb.root()[0]

    def test_b0_zero_tree_is_single_node(self):
        stats = count_tree(TreeParams.binomial(b0=0, q=0.4))
        assert stats.n_nodes == 1
        assert stats.n_leaves == 1
        assert stats.max_depth == 0


class TestSequential:
    def test_count_matches_iter_dfs(self):
        params = TreeParams.binomial(b0=30, q=0.45, seed=3)
        stats = count_tree(params)
        assert stats.n_nodes == sum(1 for _ in Tree(params).iter_dfs())

    def test_leaves_plus_interior(self):
        stats = count_tree(TreeParams.binomial(b0=30, q=0.45, seed=3))
        assert stats.n_leaves + stats.interior == stats.n_nodes

    def test_binomial_leaf_identity(self):
        """With m=2, every interior non-root node has exactly 2 children:
        n = 1 + b0 + 2 * (interior non-root)."""
        params = TreeParams.binomial(b0=25, m=2, q=0.44, seed=7)
        stats = count_tree(params)
        interior_nonroot = stats.interior - 1
        assert stats.n_nodes == 1 + params.b0 + 2 * interior_nonroot

    def test_max_nodes_guard(self):
        with pytest.raises(ConfigError, match="max_nodes=10; .*b0=100"):
            count_tree(TreeParams.binomial(b0=100, q=0.49, seed=0), max_nodes=10)

    def test_stats_walks_share_the_guard(self):
        params = TreeParams.binomial(b0=100, q=0.49, seed=0)
        tree = Tree(params)
        with pytest.raises(ConfigError, match="max_nodes=10; .*b0=100"):
            subtree_size(tree, tree.root(), max_nodes=10)
        with pytest.raises(ConfigError, match="max_nodes=10; .*b0=100"):
            stack_depth_profile(params, max_nodes=10)

    def test_sequential_search_wrapper(self):
        p = TreeParams.binomial(b0=10, q=0.3, seed=2)
        assert sequential_search(p) == count_tree(p).n_nodes

    def test_geometric_tree_counts(self):
        p = TreeParams.geometric(b0=3, gen_mx=5, seed=0)
        stats = count_tree(p)
        assert stats.n_nodes >= 1
        assert stats.max_depth <= 5


class TestImbalance:
    def test_subtree_sizes_sum(self):
        p = TreeParams.binomial(b0=40, q=0.45, seed=11)
        sizes = subtree_sizes(p)
        assert len(sizes) == 40
        assert sum(sizes) + 1 == count_tree(p).n_nodes

    def test_imbalance_stats(self):
        p = TreeParams.binomial(b0=40, q=0.45, seed=11)
        imb = root_subtree_imbalance(p)
        assert imb.largest == max(imb.sizes)
        assert 0.0 < imb.largest_fraction <= 1.0
        assert 0.0 <= imb.gini <= 1.0

    def test_near_critical_trees_more_imbalanced(self):
        mild = root_subtree_imbalance(TreeParams.binomial(b0=50, q=0.30, seed=2))
        wild = root_subtree_imbalance(TreeParams.binomial(b0=50, q=0.48, seed=2))
        assert wild.gini > mild.gini


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_every_seed_yields_valid_tree(seed):
    p = TreeParams.binomial(b0=5, m=2, q=0.35, seed=seed)
    stats = count_tree(p, max_nodes=200_000)
    assert stats.n_nodes >= 1 + p.b0
    assert stats.n_leaves >= p.b0 // 2


@given(st.integers(min_value=0, max_value=500), st.floats(min_value=0.0, max_value=0.49))
@settings(max_examples=20, deadline=None)
def test_splitmix_engine_valid_trees(seed, q):
    p = TreeParams.binomial(b0=5, m=2, q=q, seed=seed, engine="splitmix")
    stats = count_tree(p, max_nodes=200_000)
    assert stats.n_nodes >= 1
