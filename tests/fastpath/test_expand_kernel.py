"""``_core.expand`` == the scalar search.

A tree is built once and every run of a sweep reads it, so one wrong
child count forks every schedule pinned on it; and ``size`` is what
``lost_work`` accounting reads.  The compiled kernel is therefore held,
node for node, to the scalar loop of ``uts.materialized.expand``
(``_binomial``, the builder of every host without the extension), on
``(delta, size, max_depth)``.  That loop is in turn held to the
implicit tree -- ``hashlib`` / ``_mix64`` through ``Tree.iter_dfs``,
``num_children`` and ``stats.subtree_size`` -- by
``tests/uts/test_materialized.py::TestScalarBinomialLoop``, which runs
without the extension.  Here: from one root and from a service
stream's task roots, at the cap's boundary, past the kernel's initial
stack in depth and in width, and across child index 4095/4096, where
``uts/rng.py`` switches from its suffix table to ``struct.pack``.
The C SHA-1 has no test hook: the trees themselves are the test, since
a state wrong in any of its five words changes the fate of the nodes
below it.

The last section is anti-vacuity: a spy on ``_core.expand`` shows the
kernel was taken where it should be and refused where it must be.
"""

from array import array
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.fastpath as fp
from repro.errors import ConfigError
from repro.harness import config
from repro.service.tasks import TaskForest
from repro.uts import materialized
from repro.uts.materialized import (MaterializedTree, expand,
                                    expected_node_count, materialize)
from repro.uts.params import TreeParams
from repro.uts.sequential import count_tree
from repro.uts.tree import Tree
from tests.uts.test_materialized import binomial_trees, task_roots

pytestmark = pytest.mark.skipif(
    not fp.available(), reason="compiled core not built on this host")

CAP = 300_000
ENGINES = ("sha1", "splitmix")


def scalar(base, roots, cap=CAP):
    """The reference: ``expand`` with the pure backend forced."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_FASTPATH", "0")
        return expand(base, roots, cap)


def compiled(base, roots, cap=CAP, count_only=False):
    """``expand`` as a host with the extension runs it; count-only
    through the binding ``expected_node_count`` uses."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPRO_FASTPATH", raising=False)
        if count_only:
            return materialized._compiled(base)(roots, cap, True)
        return expand(base, roots, cap)


# -- the two builders, node for node -----------------------------------------

@given(params=binomial_trees())
@settings(max_examples=120, deadline=None)
def test_one_root_two_builders_one_tree(params):
    base = Tree(params)
    roots = [base.root()]
    ref = scalar(base, roots)
    got = compiled(base, roots)
    assert got == ref
    assert all(type(a) is array and a.typecode == "i" for a in got[:2])
    stats = count_tree(params)
    assert compiled(base, roots, count_only=True) == (
        stats.n_nodes, stats.n_leaves, stats.max_depth)
    assert (len(ref[0]), ref[0].count(-1), ref[2]) == (
        stats.n_nodes, stats.n_leaves, stats.max_depth)


@given(params=binomial_trees(max_b0=12),
       stream_seed=st.integers(min_value=0, max_value=2 ** 32),
       n_tasks=st.integers(min_value=0, max_value=30))
@settings(max_examples=80, deadline=None)
def test_task_root_forests_two_builders_one_layout(params, stream_seed,
                                                   n_tasks):
    base = Tree(params)
    roots = task_roots(base, stream_seed, n_tasks)
    ref = scalar(base, roots)
    assert compiled(base, roots) == ref
    n_nodes, n_leaves, max_depth = compiled(base, roots, count_only=True)
    assert (n_nodes, n_leaves, max_depth) == (
        len(ref[0]), ref[0].count(-1), ref[2])


@pytest.mark.parametrize("engine", ENGINES)
def test_a_task_forest_built_each_way_is_equal_array_for_array(
        monkeypatch, engine):
    params = TreeParams.binomial(b0=4, m=2, q=0.45, seed=0, engine=engine)

    def forest():
        f = TaskForest(params, 11, 200)
        return (f.delta, f.size, f.off, f.task_of, f.max_depth,
                f.n_nodes, f.n_leaves)

    monkeypatch.delenv("REPRO_FASTPATH", raising=False)
    by_kernel = forest()
    monkeypatch.setenv("REPRO_FASTPATH", "0")
    assert forest() == by_kernel


# -- the cap -------------------------------------------------------------------

@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("n_roots", [1, 7])
def test_cap_boundary_is_the_scalar_loops(engine, n_roots):
    base = Tree(config.T1_TEST.with_engine(engine))
    roots = ([base.root()] if n_roots == 1
             else task_roots(base, 3, n_roots))
    ref = scalar(base, roots)
    n = len(ref[0])
    for cap, want in ((n - 1, None), (n, ref), (n + 1, ref)):
        assert scalar(base, roots, cap) == want
        assert compiled(base, roots, cap) == want
        counted = compiled(base, roots, cap, count_only=True)
        assert (counted is None) == (want is None)


def test_positions_are_int32_whatever_the_cap():
    """With arrays the kernel clamps the cap to the layout's range; a
    small tree under an absurd cap is still just built."""
    base = Tree(config.T1_TEST)
    assert compiled(base, [base.root()], 10 ** 15) \
        == scalar(base, [base.root()])


# -- past the kernel's initial stack -------------------------------------------

#: The scalar counts of the two full-scale presets (13 s and 2 s of
#: ``count_tree``; measured once, the kernel recounts them in < 1 s).
FULL_PRESETS = {
    "T1_FULL": (1_512_265, 757_132, 1_616),
    "T3_FULL": (9_718_643, 4_861_321, 5_574),
}


@pytest.mark.parametrize("name", sorted(FULL_PRESETS))
def test_full_presets_count_deeper_than_the_initial_stack(name):
    """T3_FULL is 5,574 levels deep (the stack starts at 1,024 nodes)
    and 4,000 wide at the root."""
    base = Tree(getattr(config, name))
    assert compiled(base, [base.root()], 10 ** 9, count_only=True) \
        == FULL_PRESETS[name]


@pytest.mark.parametrize("name", ["T1_TEST", "T1_QUICK", "T3_TEST",
                                  "T3_QUICK"])
def test_small_presets_match_count_tree(name):
    params = getattr(config, name)
    stats = count_tree(params)
    base = Tree(params)
    delta, size, max_depth = compiled(base, [base.root()], 10 ** 7)
    assert (len(delta), delta.count(-1), max_depth) == (
        stats.n_nodes, stats.n_leaves, stats.max_depth)
    assert size[0] == stats.n_nodes
    assert compiled(base, [base.root()], 10 ** 7, count_only=True) == (
        stats.n_nodes, stats.n_leaves, stats.max_depth)


def test_deep_tree_arrays_equal_the_scalar_loops():
    """T1_QUICK holds 500 root children plus a 1,075-level path on its
    stack: the stack block moves mid-search."""
    base = Tree(config.T1_QUICK)
    assert compiled(base, [base.root()]) == scalar(base, [base.root()])


@pytest.mark.parametrize("engine", ENGINES)
def test_root_wider_than_the_initial_stack(engine):
    base = Tree(TreeParams.binomial(b0=4000, m=3, q=0.2, seed=9,
                                    engine=engine))
    ref = scalar(base, [base.root()])
    assert ref[0][0] == 3999
    assert compiled(base, [base.root()]) == ref


def test_more_task_roots_than_the_initial_stack():
    base = Tree(TreeParams.binomial(b0=2, m=2, q=0.3, seed=1))
    roots = task_roots(base, 5, 3000)
    assert compiled(base, roots) == scalar(base, roots)


# -- the C SHA-1 against hashlib, through the trees ----------------------------

@given(seed=st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
       b0=st.integers(min_value=4090, max_value=4100),
       m=st.integers(min_value=1, max_value=3))
@settings(max_examples=25, deadline=None)
def test_sha1_child_indices_across_the_suffix_table_edge(seed, b0, m):
    """Indices 0..4095 come from ``rng._IDX``, 4096.. from
    ``struct.pack``; a third of the 4,1xx root children are interior,
    so every state word is read by the generation below."""
    base = Tree(TreeParams.binomial(b0=b0, m=m, q=0.3, seed=seed))
    ref = scalar(base, [base.root()])
    assert ref[0].count(m - 1) > 1000
    assert compiled(base, [base.root()]) == ref


# -- bad input is refused by name ----------------------------------------------

@pytest.mark.parametrize("args, match", [
    (("md5", b"", 1, 1, 0, 10), "no kernel for engine 'md5'"),
    (("sha1", b"x" * 21, 1, 1, 0, 10), "whole states"),
    (("splitmix", b"x" * 9, 1, 1, 0, 10), "whole states"),
    (("sha1", b"x" * 20, -1, 1, 0, 10), "b0"),
    (("sha1", b"x" * 20, 1, 0, 0, 10), "m"),
    (("sha1", b"x" * 20, 1, 1, 2 ** 31 + 1, 10), "thresh"),
    (("sha1", b"x" * 20, 1, 1, 0, -1), "cap"),
])
def test_malformed_arguments_are_value_errors(args, match):
    with pytest.raises(ValueError, match=match):
        fp.load_core().expand(*args)


def test_no_roots_is_an_empty_layout():
    assert fp.load_core().expand("sha1", b"", 3, 2, 0, 10) \
        == (array("i"), array("i"), 0)


# -- anti-vacuity: taken where it should be, refused where it must be ----------

@pytest.fixture
def spy(monkeypatch):
    """Every ``_core.expand`` call's arguments; an empty tree cache."""
    core = fp.load_core()
    real = core.expand
    calls = []
    monkeypatch.setattr(
        core, "expand", lambda *a: calls.append(a) or real(*a))
    monkeypatch.setattr(materialized, "_TREES", OrderedDict())
    monkeypatch.delenv("REPRO_FASTPATH", raising=False)
    monkeypatch.delenv("REPRO_TREE_CACHE_CAP", raising=False)
    return calls


@pytest.mark.parametrize("engine", ENGINES)
def test_kernel_builds_trees_and_forests(spy, engine):
    params = config.T1_TEST.with_engine(engine)
    assert isinstance(materialize(params), MaterializedTree)
    TaskForest(params, 0, 5)
    assert [(c[0], c[6]) for c in spy] == [(engine, False)] * 2
    assert len(bytes(spy[1][1])) == 5 * (20 if engine == "sha1" else 8)


def test_kernel_counts_a_tree_over_the_cap(spy, monkeypatch):
    monkeypatch.setenv("REPRO_TREE_CACHE_CAP", "100")
    assert expected_node_count(config.T1_TEST) \
        == count_tree(config.T1_TEST).n_nodes
    # the build that ran into the cap, then the count that keeps nothing
    assert [(c[5], c[6]) for c in spy] == [(100, False), (500_000_000, True)]


def test_kernel_past_the_count_guard_raises_without_recounting(
        spy, monkeypatch):
    """The kernel has already counted past the guard: the error names
    the tree and the guard, and no ``count_tree`` walk repeats it."""
    monkeypatch.setenv("REPRO_TREE_CACHE_CAP", "100")
    monkeypatch.setattr(materialized, "_COUNT_GUARD", 1000)
    monkeypatch.setattr(materialized, "count_tree", None)
    with pytest.raises(ConfigError, match="max_nodes=1000; .*b0=100"):
        expected_node_count(config.T1_TEST)
    assert [(c[5], c[6]) for c in spy] == [(100, False), (1000, True)]


@pytest.mark.parametrize("params", [
    TreeParams.geometric(b0=3, gen_mx=5, seed=1),
    TreeParams.geometric(b0=3, gen_mx=5, seed=1, engine="splitmix"),
], ids=lambda p: p.describe())
def test_kernel_refuses_shapes_it_has_no_generator_for(spy, monkeypatch,
                                                      params):
    tree = materialize(params)
    monkeypatch.setenv("REPRO_TREE_CACHE_CAP", "10")
    assert expected_node_count(params) == tree.n_nodes
    assert spy == []


def test_kernel_refused_under_forced_pure(spy, monkeypatch):
    monkeypatch.setenv("REPRO_FASTPATH", "0")
    tree = materialize(config.T1_TEST)
    TaskForest(config.T1_TEST, 0, 5)
    monkeypatch.setenv("REPRO_TREE_CACHE_CAP", "100")
    assert expected_node_count(config.T1_TEST) == tree.n_nodes
    assert spy == []
