"""Cross-engine property tests: scalar engines vs batched kernels.

Three implementations can decide a UTS node's fate: the hashlib
reference engine (``Sha1Engine``), the from-scratch scalar engine
(``PureSha1Engine``), and the numpy-batched kernels in
:mod:`repro.fastpath.nputs`.  One node disagreeing on one ``rand``
value forks the entire subtree below it, so all three must agree on
*every* state -- a property, not a handful of fixtures.

The SplitMix64 kernels are exact only because numpy's uint64 modular
arithmetic reproduces Python's ``& _M64`` wraparound; the hypothesis
sweep over 64-bit seeds is what makes that claim load-bearing.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fastpath import nputs
from repro.uts.params import TreeParams
from repro.uts.rng import PureSha1Engine, Sha1Engine, SplitmixEngine
from repro.uts.stats import subtree_size
from repro.uts.tree import Tree

SEEDS = st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1)
U64 = st.integers(min_value=0, max_value=2 ** 64 - 1)

needs_numpy = pytest.mark.skipif(
    not nputs.HAVE_NUMPY, reason="numpy not available")


# -- Sha1Engine vs PureSha1Engine (scalar vs scalar) -----------------

@given(seed=SEEDS, i=st.integers(min_value=0, max_value=5000))
@settings(max_examples=150, deadline=None)
def test_sha1_engines_agree(seed, i):
    ref, pure = Sha1Engine(), PureSha1Engine()
    s_ref, s_pure = ref.init(seed), pure.init(seed)
    assert s_ref == s_pure
    assert ref.rand(s_ref) == pure.rand(s_pure)
    c_ref, c_pure = ref.spawn(s_ref, i), pure.spawn(s_pure, i)
    assert c_ref == c_pure
    assert ref.rand(c_ref) == pure.rand(c_pure)


# -- batched kernels vs scalar engines -------------------------------

@needs_numpy
@given(seed=SEEDS, n=st.integers(min_value=1, max_value=64))
@settings(max_examples=100, deadline=None)
def test_batch_rand_sha1_matches_scalar(seed, n):
    eng = Sha1Engine()
    root = eng.init(seed)
    states = [eng.spawn(root, i) for i in range(n)]
    batched = nputs.batch_rand_sha1(states)
    assert [int(v) for v in batched] == [eng.rand(s) for s in states]


@needs_numpy
@given(state=U64, n=st.integers(min_value=1, max_value=64))
@settings(max_examples=150, deadline=None)
def test_batch_spawn_splitmix_matches_scalar(state, n):
    eng = SplitmixEngine()
    batched = nputs.batch_spawn_splitmix(state, n)
    assert [int(v) for v in batched] == [eng.spawn(state, i)
                                         for i in range(n)]


@needs_numpy
@given(state=U64, n=st.integers(min_value=1, max_value=64))
@settings(max_examples=150, deadline=None)
def test_batch_rand_splitmix_matches_scalar(state, n):
    eng = SplitmixEngine()
    states = nputs.batch_spawn_splitmix(state, n)
    rands = nputs.batch_rand_splitmix(states)
    assert [int(v) for v in rands] == [eng.rand(int(s)) for s in states]


# -- whole-tree: fast_build vs the scalar depth-first search ---------

def scalar_layout(base):
    """``(n_kids, size, max_depth)`` in visit order, straight from the
    implicit tree: counts by walking it, sizes by counting each
    subtree on its own."""
    nodes = list(base.iter_dfs())
    return (array("i", [len(base.children(node)) for node in nodes]),
            array("i", [subtree_size(base, node) for node in nodes]),
            max(height for _, height in nodes))


@needs_numpy
@pytest.mark.parametrize("engine", ["sha1", "splitmix"])
@given(seed=st.integers(min_value=0, max_value=2 ** 20),
       b0=st.integers(min_value=1, max_value=8),
       q=st.floats(min_value=0.0, max_value=0.45))
@settings(max_examples=40, deadline=None)
def test_fast_build_matches_scalar_tree(engine, seed, b0, q):
    params = TreeParams(b0=b0, m=2, q=q, seed=seed, engine=engine)
    base = Tree(params)
    built = nputs.fast_build(base, 200_000)
    assert built is not None and built is not nputs.OVERFLOW
    assert built == scalar_layout(base)
    n_nodes = len(built[0])
    assert nputs.fast_build(base, n_nodes) == built
    assert nputs.fast_build(base, n_nodes - 1) is nputs.OVERFLOW


@needs_numpy
def test_fast_build_declines_unvectorized_shapes():
    # sha1-pure exists to cross-check the reference scalar code, so
    # the batched builder must leave it on the scalar path.
    base = Tree(TreeParams(b0=2, m=2, q=0.3, engine="sha1-pure"))
    assert nputs.fast_build(base, 1000) is None
    geo = Tree(TreeParams(shape="geometric", b0=2, gen_mx=3))
    assert nputs.fast_build(geo, 1000) is None
