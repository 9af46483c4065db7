"""MaterializedTree must be indistinguishable from the implicit Tree:
same shape at every visit position, same batches, same counts."""

import sys
import threading
from array import array
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fastpath, run_experiment
from repro.errors import ConfigError, ProtocolError
from repro.harness import parallel, runner
from repro.service.tasks import TaskForest
from repro.sim.rng import substream_seed
from repro.uts import Tree, TreeParams, count_tree, materialized
from repro.uts.materialized import (DEFAULT_NODE_CAP, MaterializedTree,
                                    expected_node_count, materialize,
                                    node_cap, tree_for)
from repro.uts.stats import subtree_size

BINOMIAL = TreeParams.binomial(b0=25, m=2, q=0.44, seed=7)
#: A geometric tree whose root alone has 107 of its 1722 nodes as
#: children: one visit that pushes past any release threshold.
WIDE_ROOT = TreeParams.geometric(b0=30, gen_mx=2, seed=11)

#: Small trees of every shape x engine the generator knows.
SHAPES = st.one_of(
    st.builds(TreeParams.binomial,
              b0=st.integers(1, 8), m=st.just(2), q=st.floats(0.0, 0.45),
              seed=st.integers(0, 2 ** 20),
              engine=st.sampled_from(["sha1", "splitmix"])),
    st.builds(TreeParams.geometric,
              b0=st.integers(1, 3), gen_mx=st.integers(1, 5),
              seed=st.integers(0, 2 ** 20),
              geo_shape=st.sampled_from(
                  ["linear", "fixed", "expdec", "cyclic"]),
              engine=st.sampled_from(["sha1", "splitmix"])),
)


def build_both(params):
    """``params`` through the scalar depth-first builder
    (``REPRO_FASTPATH=0``) and through whatever the host offers (the
    compiled kernel where the extension loads and has one for the
    shape)."""
    built = []
    for fastpath_env in ("0", None):
        with pytest.MonkeyPatch.context() as mp:
            mp.delenv("REPRO_FASTPATH", raising=False)
            if fastpath_env is not None:
                mp.setenv("REPRO_FASTPATH", fastpath_env)
            built.append(materialize(params, max_nodes=1_000_000))
        assert isinstance(built[-1], MaterializedTree)
    return built


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty process-wide tree cache for one test; the suite's own
    is put back afterwards."""
    monkeypatch.setattr(materialized, "_TREES", OrderedDict())
    return materialized._TREES


class TestLayout:
    """The arrays against the independent reference: the implicit
    ``Tree``, ``count_tree`` and ``stats.subtree_size`` know nothing of
    visit positions."""

    @given(params=SHAPES)
    @settings(max_examples=60, deadline=None)
    def test_every_position_matches_the_implicit_tree(self, params):
        implicit = Tree(params)
        nodes = list(implicit.iter_dfs())
        position = {node: i for i, node in enumerate(nodes)}
        assert position[implicit.root()] == 0
        want = [([position[kid] for kid in implicit.children(node)],
                 subtree_size(implicit, node)) for node in nodes]
        scalar, default = build_both(params)
        assert (scalar.delta, scalar.size) == (default.delta, default.size)
        for mat in (scalar, default):
            assert mat.root() == 0
            assert list(mat.iter_dfs()) == list(range(len(nodes)))
            for i, (kids, size) in enumerate(want):
                assert mat.num_children(i) == len(kids)
                assert mat.delta[i] == len(kids) - 1
                assert mat.children(i) == kids
                assert mat.size[i] == size

    @given(params=SHAPES)
    @settings(max_examples=60, deadline=None)
    def test_stats_match_sequential(self, params):
        """``expected_node_count`` reads ``n_nodes`` instead of
        traversing; ``count_tree`` is what makes that safe."""
        stats = count_tree(params)
        for mat in build_both(params):
            assert (mat.n_nodes, mat.n_leaves, mat.max_depth) \
                == (stats.n_nodes, stats.n_leaves, stats.max_depth)

    def test_describe_identical(self):
        assert materialize(BINOMIAL).describe() == BINOMIAL.describe()


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


def reference_layout(base, roots):
    """``(delta, size, max_depth)`` for ``roots`` one after the other,
    from the implicit tree alone: each root's nodes in the order
    ``Tree.iter_dfs`` visits them (that walk, from the given root),
    ``num_children`` for ``delta`` and ``stats.subtree_size`` for
    ``size``."""
    delta, size, max_depth = array("i"), array("i"), 0
    for root in roots:
        stack = [root]
        while stack:
            node = stack.pop()
            stack.extend(base.children(node))
            delta.append(base.num_children(node) - 1)
            size.append(subtree_size(base, node))
            max_depth = max(max_depth, node[1])
    return delta, size, max_depth


@st.composite
def binomial_trees(draw, max_b0=40):
    m = draw(st.integers(min_value=1, max_value=8))
    # m * q in [0, 0.9]: expected subtree size at most 10 nodes
    q = draw(st.integers(min_value=0, max_value=900)) / (1000.0 * m)
    return TreeParams.binomial(
        b0=draw(st.integers(min_value=0, max_value=max_b0)), m=m, q=q,
        seed=draw(st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1)),
        engine=draw(st.sampled_from(["sha1", "splitmix"])))


def task_roots(base, seed, n_tasks):
    """A service stream's task roots, as ``TaskForest`` derives them."""
    init = base.engine.init
    return [(init(substream_seed(seed, "svc.task", tid)
                  & 0x7FFFFFFFFFFFFFFF), 0) for tid in range(n_tasks)]


def scalar_binomial(base, roots, cap=10 ** 6):
    """``expand`` as a host without the extension runs it, which for a
    binomial tree must be the written-out loop, never ``Tree.children``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_FASTPATH", "0")
        mp.setattr(materialized, "_generic", None)
        return materialized.expand(base, roots, cap)


class TestScalarBinomialLoop:
    """``_binomial`` inlines the child rule and both engines' spawn, so
    it is held to the implicit tree directly (the compiled kernel is
    held to it in ``tests/fastpath/test_expand_kernel.py``)."""

    @given(params=binomial_trees())
    @settings(max_examples=80, deadline=None)
    def test_one_root(self, params):
        base = Tree(params)
        ref = reference_layout(base, [base.root()])
        assert scalar_binomial(base, [base.root()]) == ref
        assert list(ref[0]) == [base.num_children(node) - 1
                                for node in base.iter_dfs()]

    @pytest.mark.parametrize("engine", ["sha1", "splitmix"])
    def test_root_fan_out_past_the_suffix_table(self, engine):
        """Child 4096 is the first whose SHA-1 suffix is not in
        ``rng._IDX``."""
        params = TreeParams.binomial(b0=4097, m=3, q=0.3, seed=5,
                                     engine=engine)
        base = Tree(params)
        got = scalar_binomial(base, [base.root()])
        assert got[0][0] == 4096
        assert got == reference_layout(base, [base.root()])

    @pytest.mark.parametrize("engine", ["sha1", "splitmix"])
    @pytest.mark.parametrize("above", [0, 1])
    def test_a_rand_equal_to_thresh_is_a_leaf(self, engine, above):
        """``rand(state) < thresh`` is the interior test: the root's one
        child has ``rand`` exactly ``thresh`` (a leaf), or one below
        it (interior) -- for SHA-1, a tie on all four bytes."""
        probe = Tree(TreeParams.binomial(b0=1, m=1, q=0.5, seed=0,
                                         engine=engine))
        r = probe.engine.rand(probe.children(probe.root())[0][0])
        base = Tree(TreeParams.binomial(b0=1, m=1, q=(r + above) / 2 ** 31,
                                        seed=0, engine=engine))
        assert base._thresh == r + above
        got = scalar_binomial(base, [base.root()])
        assert list(got[0][:2]) == [0, above - 1]
        assert got == reference_layout(base, [base.root()])

    @given(params=binomial_trees(max_b0=12),
           stream_seed=st.integers(min_value=0, max_value=2 ** 32),
           n_tasks=st.integers(min_value=0, max_value=30))
    @settings(max_examples=40, deadline=None)
    def test_task_forest_roots(self, params, stream_seed, n_tasks):
        base = Tree(params)
        roots = task_roots(base, stream_seed, n_tasks)
        ref = reference_layout(base, roots)
        assert scalar_binomial(base, roots) == ref
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REPRO_FASTPATH", "0")
            forest = TaskForest(params, stream_seed, n_tasks)
        assert (forest.delta, forest.size) == (array("i", [-1]) + ref[0],
                                               array("i", [1]) + ref[1])

    @pytest.mark.parametrize("engine", ["sha1", "splitmix"])
    @pytest.mark.parametrize("n_roots", [1, 7])
    def test_cap_boundary(self, engine, n_roots):
        base = Tree(BINOMIAL.with_engine(engine))
        roots = ([base.root()] if n_roots == 1
                 else task_roots(base, 3, n_roots))
        ref = reference_layout(base, roots)
        n = len(ref[0])
        assert scalar_binomial(base, roots, n - 1) is None
        assert scalar_binomial(base, roots, n) == ref


def kernels(tree):
    """Every ``batch_expand`` a run can pick for ``tree``."""
    found = {"python": tree.batch_expand}
    if fastpath.load_core() is not None:
        found["c"] = fastpath.batch_expander(tree)
    return found


class TestBadHandle:
    """A handle means something only to the tree that issued it; any
    other value is refused by name, not read from the arrays (a bare
    ``array[-1]`` would answer from the far end)."""

    @pytest.mark.parametrize("handle", [
        -1, 10 ** 30, Tree(BINOMIAL).root(), True, 2.0, None],
        ids=repr)
    def test_refused_naming_tree_and_handle(self, handle):
        mat = materialize(BINOMIAL)
        calls = [mat.children, mat.num_children]
        calls += [lambda h, expand=expand: expand([0, h], 8, 100)
                  for expand in kernels(mat).values()]
        messages = set()
        for call in calls:
            with pytest.raises(ProtocolError) as err:
                call(handle)
            messages.add(str(err.value))
        assert len(messages) == 1, messages
        assert BINOMIAL.describe() in messages.pop()
        assert repr(handle) in str(err.value)

    def test_first_handle_past_the_end(self):
        mat = materialize(BINOMIAL)
        assert mat.children(mat.n_nodes - 1) == []
        with pytest.raises(ProtocolError, match=f"{mat.n_nodes} is not"):
            mat.children(mat.n_nodes)
        other = materialize(BINOMIAL.with_seed(12345))
        assert other.n_nodes != mat.n_nodes  # its handles are not ours


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
        real = materialized.expand
        monkeypatch.setattr(
            materialized, "expand",
            lambda *a: calls.append(a) or real(*a))
        tree = tree_for(BINOMIAL)
        assert type(tree) is Tree
        assert len(calls) == 1  # the expansion that ran into the cap
        assert tree_for(BINOMIAL) is tree
        assert len(calls) == 1  # second lookup expands nothing
        assert expected_node_count(BINOMIAL) == count_tree(BINOMIAL).n_nodes

    def test_past_the_count_guard_is_a_config_error(self, monkeypatch,
                                                     fresh_cache):
        """Without the kernel the count is ``count_tree``'s, whose guard
        names the tree in the error every caller already handles."""
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        monkeypatch.setenv("REPRO_TREE_CACHE_CAP", "10")
        monkeypatch.setattr(materialized, "_COUNT_GUARD", 50)
        with pytest.raises(ConfigError, match="max_nodes=50; .*b0=25"):
            expected_node_count(BINOMIAL)
        with pytest.raises(ConfigError, match="max_nodes=50"):
            run_experiment("upc-distmem", tree=BINOMIAL, threads=2,
                           verify=True)


def generic_batch(tree, local, limit, thresh):
    """``AlgorithmBase.explore_batch``'s own loop over ``children()``."""
    n = pushed = 0
    while local and n < limit:
        kids = tree.children(local.pop())
        if kids:
            local.extend(kids)
            pushed += len(kids)
        n += 1
        if len(local) >= thresh:
            break
    return n, pushed


def check_batch(mat, local, limit, thresh):
    """One batch on ``local`` through every kernel; all must leave what
    the generic loop leaves."""
    want_local = list(local)
    want = generic_batch(mat, want_local, limit, thresh)
    for name, expand in kernels(mat).items():
        got_local = list(local)
        got = expand(got_local, limit, thresh)
        assert (got, got_local) == (want, want_local), \
            (name, local, limit, thresh)
    local[:] = want_local
    return want[0]


class TestBatchExpand:
    """The range-scan kernels must mirror ``explore_batch``'s loop
    exactly -- ``(visited, pushed, resulting stack)`` -- on every stack
    a run can hand them, not only on a sequential search's."""

    @given(params=SHAPES, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_generic_loop_under_stack_moves(self, params, data):
        mat = materialize(params, max_nodes=1_000_000)
        local = [mat.root()]
        chunks = []  # dropped from the bottom of a stack, oldest first
        for _ in range(60):
            if not local and not chunks:
                break
            move = data.draw(st.sampled_from(
                ["batch", "batch", "drop", "reacquire", "adopt", "dup"]))
            if move == "batch" and local:
                limit = data.draw(st.one_of(
                    st.just(1), st.integers(1, 40),
                    st.just(mat.n_nodes + 5)))
                thresh = data.draw(st.one_of(
                    st.integers(1, len(local)),  # met on entry
                    st.integers(len(local) + 1, len(local) + 6),
                    st.just(10 ** 9)))
                check_batch(mat, local, limit, thresh)
            elif move == "drop" and local:  # release, or a steal
                k = data.draw(st.integers(1, len(local)))
                chunks.append(local[:k])
                del local[:k]
            elif move == "reacquire" and chunks:
                local[0:0] = chunks.pop(
                    data.draw(st.integers(0, len(chunks) - 1)))
            elif move == "adopt" and chunks and not local:  # a thief
                local = chunks.pop(0)
            elif move == "dup" and chunks:  # the fence-free duplicator
                chunks.append(list(data.draw(st.sampled_from(chunks))))

    @pytest.mark.parametrize("params", [BINOMIAL, WIDE_ROOT],
                             ids=["binomial", "wide-root"])
    @pytest.mark.parametrize("limit,chunk", [
        (32, 1), (32, 2), (32, 8), (5, 2), (1, 2), (10 ** 9, 10 ** 9)])
    def test_one_owner_releasing_chunks(self, params, limit, chunk):
        """The working phase's own cycle: batches at ``thresh = 2 *
        chunk``, a chunk released off the bottom whenever the stack
        reaches it, released chunks reacquired when it runs dry."""
        mat = materialize(params)
        thresh = 2 * chunk
        local = [mat.root()]
        released = []
        visited = 0
        while local or released:
            if not local:
                local = released.pop()
            visited += check_batch(mat, local, limit, thresh)
            while len(local) >= thresh:
                released.append(local[:chunk])
                del local[:chunk]
        assert visited == mat.n_nodes == count_tree(params).n_nodes

    def test_wide_root_is_wide(self):
        assert materialize(WIDE_ROOT).num_children(0) == 107


GEOMETRIC = TreeParams.geometric(b0=3, gen_mx=5, seed=0)
GEO_CYCLIC = TreeParams.geometric(b0=2, gen_mx=4, seed=1, geo_shape="cyclic")


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
