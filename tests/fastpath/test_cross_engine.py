"""Cross-engine property tests: the tree builders against the tree.

``uts.materialized.expand`` turns the implicit tree into the preorder
layout, by the compiled kernel where one applies (its SHA-1 and
SplitMix64 written out in C) and by the scalar loop over the hashlib
engine otherwise.  One node disagreeing on one ``rand`` value forks
the entire subtree below it, so both are held here to a walk that
knows nothing of either: child counts from ``Tree.children``, subtree
sizes from ``stats.subtree_size``.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uts.materialized import expand
from repro.uts.params import TreeParams
from repro.uts.stats import subtree_size
from repro.uts.tree import Tree


def scalar_layout(base):
    """``(delta, size, max_depth)`` in visit order, straight from the
    implicit tree: child counts by walking it, sizes by counting each
    subtree on its own."""
    nodes = list(base.iter_dfs())
    return (array("i", [len(base.children(node)) - 1 for node in nodes]),
            array("i", [subtree_size(base, node) for node in nodes]),
            max(height for _, height in nodes))


@pytest.mark.parametrize("fastpath_env", ["0", None],
                         ids=["scalar", "default"])
@pytest.mark.parametrize("engine", ["sha1", "splitmix"])
@given(seed=st.integers(min_value=0, max_value=2 ** 20),
       b0=st.integers(min_value=1, max_value=8),
       q=st.floats(min_value=0.0, max_value=0.45))
@settings(max_examples=40, deadline=None)
def test_expand_matches_an_independent_walk(fastpath_env, engine, seed,
                                            b0, q):
    """The default is the compiled kernel where the extension loads,
    the scalar loop elsewhere; the cap
    refuses one node short of the tree and admits it exactly."""
    base = Tree(TreeParams(b0=b0, m=2, q=q, seed=seed, engine=engine))
    want = scalar_layout(base)
    n = len(want[0])
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPRO_FASTPATH", raising=False)
        if fastpath_env is not None:
            mp.setenv("REPRO_FASTPATH", fastpath_env)
        for cap, built in ((n - 1, None), (n, want), (n + 1, want)):
            assert expand(base, [base.root()], cap) == built, cap
