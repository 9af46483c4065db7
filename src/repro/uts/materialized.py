"""Materialized UTS trees: expand once, serve every subsequent run.

A figure sweep executes dozens of independent runs over the *same*
tree, and the implicit :class:`~repro.uts.tree.Tree` re-derives every
node's children with one SHA-1 hash per child on every run -- the
documented hot path.  :class:`MaterializedTree` performs that expansion
exactly once, stores the nodes and per-node child counts in flat
arrays, and then answers ``root()`` / ``children()`` / ``num_children()``
by index lookup for every later run of the same :class:`TreeParams`.

Layout (one breadth-first pass):

* ``_nodes``   -- every node tuple, root first.
* ``_kid_map`` -- node tuple -> precomputed list of child nodes (leaves
  share one empty list).

``children()`` is therefore a single dict lookup -- no hashing beyond
the key -- and the whole structure is read-only after construction, so
it is shared copy-on-write with forked sweep workers.

Memory is bounded by :func:`node_cap` (default 2,000,000 nodes,
override with ``REPRO_TREE_CACHE_CAP``; ``0`` disables materialization
entirely): :func:`materialize` falls back to returning the implicit
:class:`Tree` when the expansion would exceed the cap, so near-critical
trees degrade to on-the-fly generation instead of exhausting host
memory.  :func:`tree_for` caches those results process-wide; every
``run_experiment(TreeParams)`` and every sweep resolves its tree there.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Iterator, List, Optional

from repro.errors import ConfigError
from repro.uts.params import TreeParams
from repro.uts.sequential import count_tree
from repro.uts.tree import Node, Tree

__all__ = ["MaterializedTree", "materialize", "node_cap", "DEFAULT_NODE_CAP",
           "tree_for", "expected_node_count"]

#: Default ceiling on materialized tree size (nodes).  A 2M-node
#: binomial tree costs roughly 250 MB of node tuples + index; past
#: that, on-the-fly generation is the right trade.
DEFAULT_NODE_CAP = 2_000_000


def node_cap() -> int:
    """The active materialization cap, in nodes: ``REPRO_TREE_CACHE_CAP``
    if set, else :data:`DEFAULT_NODE_CAP`.  ``0`` disables
    materialization; anything but a non-negative integer raises
    :class:`~repro.errors.ConfigError`.
    """
    raw = os.environ.get("REPRO_TREE_CACHE_CAP", str(DEFAULT_NODE_CAP)).strip()
    if not raw.isdecimal():
        raise ConfigError(
            f"REPRO_TREE_CACHE_CAP={raw!r} is not a non-negative integer "
            "(expected a node count; 0 = never materialize)")
    return int(raw)


class MaterializedTree:
    """One fully-expanded UTS tree, served from flat arrays.

    Drop-in for :class:`~repro.uts.tree.Tree` wherever a search space
    is consumed (``root``/``children``/``num_children``/``iter_dfs``),
    producing bit-identical node tuples.  Callers must treat the lists
    returned by :meth:`children` as read-only (every built-in algorithm
    does).
    """

    __slots__ = ("params", "engine", "_base", "_nodes", "_kid_map",
                 "n_nodes", "n_leaves", "max_depth")

    #: Shared empty child list for leaves (callers treat it read-only).
    _NO_KIDS: List[Node] = []

    def __init__(self, base: Tree, nodes: List[Node], kid_map: dict) -> None:
        self.params: TreeParams = base.params
        self.engine = base.engine
        self._base = base
        self._nodes = nodes
        self._kid_map = kid_map
        self.n_nodes = len(nodes)
        self.n_leaves = sum(1 for k in kid_map.values() if not k)
        self.max_depth = max(h for _, h in nodes) if nodes else 0

    @classmethod
    def build(cls, params: TreeParams,
              max_nodes: Optional[int] = None) -> Optional["MaterializedTree"]:
        """Expand ``params`` in one pass; None if it exceeds ``max_nodes``."""
        cap = node_cap() if max_nodes is None else max_nodes
        if cap <= 0:
            return None
        base = Tree(params)
        # Vectorized builder (repro.fastpath.nputs): same breadth-first
        # node list and child map, built level-at-a-time with numpy
        # child-count kernels.  None means "no kernel for this shape";
        # OVERFLOW means the scalar loop would hit the cap too.
        from repro.fastpath import vector_expansion_enabled
        if vector_expansion_enabled():
            from repro.fastpath import nputs
            built = nputs.fast_build(base, cap, cls._NO_KIDS)
            if built is nputs.OVERFLOW:
                return None
            if built is not None:
                return cls(base, built[0], built[1])
        nodes: List[Node] = [base.root()]
        kid_map: dict = {}
        no_kids = cls._NO_KIDS
        children = base.children
        i = 0
        while i < len(nodes):
            node = nodes[i]
            kids = children(node)
            kid_map[node] = kids if kids else no_kids
            nodes.extend(kids)
            if len(nodes) > cap:
                return None
            i += 1
        return cls(base, nodes, kid_map)

    def describe(self) -> str:
        return self.params.describe()

    # -- search-space protocol ----------------------------------------------

    def root(self) -> Node:
        return self._nodes[0]

    def num_children(self, node: Node) -> int:
        kids = self._kid_map.get(node)
        if kids is None:  # not part of this tree; derive on the fly
            return self._base.num_children(node)
        return len(kids)

    def children(self, node: Node) -> list:
        """Children of ``node`` as a fresh list (hot path, no hashing)."""
        kids = self._kid_map.get(node)
        if kids is None:  # not part of this tree; derive on the fly
            return self._base.children(node)
        return list(kids)

    # -- fused exploration hook ----------------------------------------------

    def batch_expand(self, local: list, limit: int, thresh: int) -> tuple:
        """Run the DFS inner loop of ``AlgorithmBase.explore_batch``
        directly against the precomputed child map (one dict lookup per
        node, no per-node ``children()`` call, no list copies).  Must
        mirror the generic loop exactly: same pop order, same early
        exits.  Returns ``(visited, pushed)``.
        """
        kid_map = self._kid_map
        pop = local.pop
        extend = local.extend
        n = 0
        pushed = 0
        # Track the stack depth in a local integer instead of calling
        # ``len(local)`` twice per node (pop always removes one, extend
        # always adds len(kids)).
        llen = len(local)
        while llen and n < limit:
            node = pop()
            llen -= 1
            try:
                kids = kid_map[node]
            except KeyError:  # foreign node: derive on the fly
                kids = self._base.children(node)
            if kids:
                extend(kids)
                k = len(kids)
                pushed += k
                llen += k
            n += 1
            if llen >= thresh:
                break
        return n, pushed

    # -- traversal helpers ----------------------------------------------------

    def iter_dfs(self) -> Iterator[Node]:
        """Depth-first iterator; identical sequence to ``Tree.iter_dfs``."""
        stack = [self.root()]
        pop = stack.pop
        extend = stack.extend
        children = self.children
        while stack:
            node = pop()
            yield node
            extend(children(node))


def materialize(params: TreeParams, max_nodes: Optional[int] = None):
    """Best-effort materialization of ``params``.

    Returns a :class:`MaterializedTree` when the tree fits under the
    node cap, or the implicit :class:`Tree` otherwise -- either way the
    result serves the search-space protocol with identical nodes.
    """
    mat = MaterializedTree.build(params, max_nodes=max_nodes)
    return mat if mat is not None else Tree(params)


#: The process-wide tree cache, least recently used first.  Forked
#: sweep workers inherit it copy-on-write.
_TREES: "OrderedDict[TreeParams, object]" = OrderedDict()
_TREES_LOCK = threading.Lock()


def _cost(tree) -> int:
    return getattr(tree, "n_nodes", 1)  # an implicit Tree is charged one


def tree_for(params: TreeParams):
    """The process-wide tree for ``params``: materialized when it fits
    under :func:`node_cap`, else the implicit :class:`Tree` (cached too,
    so the abandoned expansion is paid once).  The cache holds at most
    :func:`node_cap` nodes in total: least-recently-used trees are
    dropped until the newcomer fits.
    """
    with _TREES_LOCK:
        tree = _TREES.get(params)
        if tree is not None:
            _TREES.move_to_end(params)
            return tree
        cap = node_cap()
        tree = materialize(params, max_nodes=cap)
        room = cap - _cost(tree)
        while _TREES and sum(map(_cost, _TREES.values())) > room:
            _TREES.popitem(last=False)
        if room >= 0:
            _TREES[params] = tree
        return tree


def expected_node_count(params: TreeParams) -> int:
    """The sequential node count every parallel run must reproduce: the
    materialized expansion's size when there is one (a breadth-first
    pass over the same generator), else a :func:`count_tree` traversal.
    """
    tree = tree_for(params)
    if isinstance(tree, MaterializedTree):
        return tree.n_nodes
    return count_tree(params).n_nodes
