"""Materialized UTS trees: expand once, serve every subsequent run.

A figure sweep executes dozens of independent runs over the *same*
tree, and the implicit :class:`~repro.uts.tree.Tree` re-derives every
node's children with one SHA-1 hash per child on every run -- the
documented hot path.  :class:`MaterializedTree` performs that expansion
exactly once and keeps the tree's *shape*, which is all a search reads
after that (stacks, chunks, steals and fault journals only move opaque
handles): a node is named by its **visit position**, states are dropped.

Layout: two flat ``array('i')`` indexed by the order the sequential
``pop()`` / ``extend(children)`` depth-first search visits nodes
(root = 0): ``delta[i]``, the child count less one -- what visiting
``i`` does to the length of a DFS stack, ``-1`` for a leaf -- and
``size[i]``, the nodes in ``i``'s subtree, which is exactly positions
``i .. i + size[i] - 1``.  The children of ``i`` are the chain ``c1 =
i + 1``, ``c(j+1) = cj + size[cj]``, and a visit batch is a scan of a
slice of ``delta`` (:meth:`MaterializedTree.batch_expand`).  The arrays
are read-only after construction, hold no Python objects (8 bytes a
node, nothing for the garbage collector to walk), and are shared
copy-on-write with forked sweep workers.  One builder per backend
makes them (:func:`expand`): the compiled kernel ``_core.expand`` where
the extension loads and has a generator for the tree, else the scalar
loop, the reference the kernel is held to.

Memory is bounded by :func:`node_cap` (:data:`DEFAULT_NODE_CAP` nodes,
override with ``REPRO_TREE_CACHE_CAP``; ``0`` disables materialization
entirely): :func:`materialize` falls back to returning the implicit
:class:`Tree` when the expansion would exceed the cap, so near-critical
trees degrade to on-the-fly generation instead of exhausting host
memory.  :func:`tree_for` caches those results process-wide; every
``run_experiment(TreeParams)`` and every sweep resolves its tree there,
and a service stream's task forest (:mod:`repro.service.tasks`, built
through :func:`expand`) is one more entry of the same cache.
"""

from __future__ import annotations

import hashlib
import os
import threading
from array import array
from collections import OrderedDict
from struct import pack
from typing import Iterator, Optional

from repro.errors import ConfigError, ProtocolError
from repro.uts.params import TreeParams
from repro.uts.rng import _M64, _SPLITMIX_GAMMA, RAND_MAX
from repro.uts.sequential import count_tree
from repro.uts.tree import Tree

__all__ = ["MaterializedTree", "materialize", "node_cap", "DEFAULT_NODE_CAP",
           "tree_for", "expected_node_count"]

#: Default ceiling on materialized tree size (nodes): a 250 MB budget
#: at the layout's 8 bytes a node (two int32 arrays).  Past that,
#: on-the-fly generation is the right trade.
DEFAULT_NODE_CAP = 250_000_000 // 8

#: What a count of a tree too large to materialize stops at: parameters
#: this close to critical were a typo (the paper's 157 G-node tree).
_COUNT_GUARD = 500_000_000


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
    """One fully-expanded UTS tree, served from preorder arrays.

    Drop-in for :class:`~repro.uts.tree.Tree` wherever a search space
    is consumed (``root``/``children``/``num_children``/``iter_dfs``),
    with the identical shape.  A node handle is an ``int``, the node's
    visit position, valid only for the tree that issued it; ``(state,
    height)`` tuples exist only on the implicit :class:`Tree`.
    """

    __slots__ = ("params", "delta", "size", "n_nodes", "n_leaves",
                 "max_depth")

    def __init__(self, params: TreeParams, delta: array, size: array,
                 max_depth: int) -> None:
        self.params = params
        self.delta = delta
        self.size = size
        self.n_nodes = len(delta)
        self.n_leaves = delta.count(-1)
        self.max_depth = max_depth

    @classmethod
    def build(cls, params: TreeParams,
              max_nodes: Optional[int] = None) -> Optional["MaterializedTree"]:
        """Expand ``params`` in one pass; None if it exceeds ``max_nodes``."""
        cap = node_cap() if max_nodes is None else max_nodes
        base = Tree(params)
        built = expand(base, [base.root()], cap) if cap > 0 else None
        return cls(params, *built) if built is not None else None

    def describe(self) -> str:
        return self.params.describe()

    # -- search-space protocol ----------------------------------------------

    def root(self) -> int:
        return 0

    def num_children(self, node: int) -> int:
        if type(node) is not int or not 0 <= node < self.n_nodes:
            raise ProtocolError(
                f"{self.describe()}: {node!r} is not a node of this "
                f"materialized tree (its handles are the ints 0.."
                f"{self.n_nodes - 1}, valid for no other tree)")
        return self.delta[node] + 1

    def children(self, node: int) -> list:
        """Children of ``node`` as a fresh list, last-visited first (so
        a DFS stack extended with it pops positions in order)."""
        count = self.num_children(node)
        size = self.size
        kids = []
        child = node + 1
        for _ in range(count):
            kids.append(child)
            child += size[child]
        kids.reverse()
        return kids

    def iter_dfs(self) -> Iterator[int]:
        """Handles in visit order, in lockstep with ``Tree.iter_dfs``."""
        return iter(range(self.n_nodes))

    # -- fused exploration hook ----------------------------------------------

    def batch_expand(self, local: list, limit: int, thresh: int) -> tuple:
        """Run the DFS inner loop of ``AlgorithmBase.explore_batch`` as
        range scans.  Must mirror the generic loop exactly: same visits,
        same early exits, same ``local``.  Returns ``(visited, pushed)``.

        With ``below`` entries under a popped handle ``a``, the search
        visits ``a, a+1, ...`` until the stack is back to ``below``,
        and after each visit its length is ``below + 1 +
        sum(delta[a..])``: scan ``delta`` until that reaches ``thresh``
        or the budget runs out, then push what is pending of ``a`` --
        the ``cur - below`` subtrees that tile the rest of its range.
        """
        delta, size, n_nodes = self.delta, self.size, self.n_nodes
        n = pushed = 0
        cur = len(local)
        while cur and n < limit:
            a = local.pop()
            if type(a) is not int or not 0 <= a < n_nodes:
                self.num_children(a)  # raises, naming tree and handle
            below = cur - 1
            span = size[a]
            if span > limit - n:
                span = limit - n
            elif below + span <= thresh:
                # The whole subtree fits the budget, and its pending
                # entries (< span of them) cannot reach thresh.
                n += span
                pushed += span - 1
                cur = below
                continue
            v = 0
            for d in delta[a:a + span]:
                cur += d
                v += 1
                if cur >= thresh:
                    break
            n += v
            pushed += cur - below - 1 + v
            p = a + v
            for _ in range(cur - below):
                local.insert(below, p)  # under the one before it
                p += size[p]
            if cur >= thresh:
                break
        return n, pushed


def _compiled(base: Tree):
    """``_core.expand`` bound to ``base``'s generator, as ``(roots,
    cap, count_only=False)``; None without the extension, under a
    forced-pure ``REPRO_FASTPATH``, and for geometric trees: their
    child counts go through ``libm`` (one ulp would fork a subtree).
    """
    name = base.engine.name
    if not base._is_binomial:
        return None
    from repro import fastpath
    core = None if fastpath.env_mode() == "pure" else fastpath.load_core()
    if core is None:
        return None

    def kernel(roots: list, cap: int, count_only: bool = False):
        states = [state for state, _ in roots]
        return core.expand(
            name, b"".join(states) if name == "sha1" else array("Q", states),
            base._b0, base._m, base._thresh, cap, count_only)
    return kernel


def expand(base: Tree, roots: list, cap: int):
    """The layout's ``(delta, size, max_depth)`` for the subtrees under
    ``roots`` (height-0 nodes of ``base``), one after the other, each in
    the order the sequential search visits it; None past ``cap`` nodes.

    Two builders, the same arrays: the compiled depth-first kernel
    where one applies, else a scalar loop -- :func:`_binomial`, which
    ``_core.expand`` transliterates, or :func:`_generic` for geometric
    trees -- then one reverse pass for the sizes.
    """
    kernel = _compiled(base)
    if kernel is not None:
        return kernel(roots, cap)
    built = (_binomial if base._is_binomial else _generic)(base, roots, cap)
    if built is None:
        return None
    delta, max_depth = built
    # Sizes in reverse: child j+1 starts where child j's subtree ends.
    size = array("i", [1]) * len(delta)
    i = len(delta)
    for d in reversed(delta):
        i -= 1
        if d >= 0:
            s = 1
            for _ in range(d + 1):
                s += size[i + s]
            size[i] = s
    return delta, size, max_depth


def _generic(base: Tree, roots: list, cap: int):
    """``(delta, max_depth)`` by the sequential search itself, through
    ``Tree.children``: pop order is the layout's index (the first root
    on top, so each subtree is done before the next)."""
    delta = array("i")
    visit = delta.append
    max_depth = 0
    stack = roots[::-1]
    pop = stack.pop
    extend = stack.extend
    children = base.children
    while stack:
        node = pop()
        kids = children(node)
        visit(len(kids) - 1)
        if kids:
            extend(kids)
            if len(delta) + len(stack) > cap:
                return None
        elif node[1] > max_depth:  # the deepest node is a leaf
            max_depth = node[1]
    return delta, max_depth


def _binomial(base: Tree, roots: list, cap: int):
    """:func:`_generic` for a binomial tree, with ``Tree.num_children``
    and the engine's ``spawn`` written out: a node at height 0 has
    ``b0`` children, any other ``m`` if ``rand(state) < thresh``, else
    none.  The search pushes all children but the last and walks
    straight down into that one (the next node ``pop()`` would give).
    """
    b0, m, thresh = base._b0, base._m, base._thresh
    sha = base.engine.name == "sha1"

    def spawn_keys(k):
        """What ``spawn(state, i)`` adds to ``state`` for child ``i``
        of ``k``: the pushed children's and the last child's."""
        keys = ([pack(">I", i) for i in range(k)] if sha else
                [(i + 1) * _SPLITMIX_GAMMA & _M64 for i in range(k)])
        return k, keys[:-1], keys[-1]

    at_root = spawn_keys(b0) if b0 else None
    below = spawn_keys(m)
    # SHA-1's rand is the state's first four bytes less the top bit:
    # the first byte decides unless it ties thresh's.
    t24 = thresh >> 24
    sha1 = hashlib.sha1
    from_bytes = int.from_bytes
    delta = array("i")
    visit = delta.append
    max_depth = 0
    stack = roots[::-1]
    pop = stack.pop
    push = stack.append
    while stack:
        state, depth = pop()
        while True:
            if depth:
                if sha:
                    b = state[0] & 0x7F
                    leaf = b > t24 or (b == t24 and from_bytes(
                        state[:4], "big") & RAND_MAX >= thresh)
                else:
                    leaf = state >> 33 >= thresh
                if leaf:
                    visit(-1)
                    if depth > max_depth:  # the deepest node is a leaf
                        max_depth = depth
                    break
                k, head, last = below
            elif at_root is None:
                visit(-1)
                break
            else:
                k, head, last = at_root
            visit(k - 1)
            if len(delta) + len(stack) + k > cap:
                return None
            depth += 1
            if sha:
                for key in head:
                    push((sha1(state + key).digest(), depth))
                state = sha1(state + last).digest()
            else:
                for key in head:
                    z = (state + key) & _M64
                    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _M64
                    z = (z ^ z >> 27) * 0x94D049BB133111EB & _M64
                    push((z ^ z >> 31, depth))
                z = (state + last) & _M64
                z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _M64
                z = (z ^ z >> 27) * 0x94D049BB133111EB & _M64
                state = z ^ z >> 31
    return delta, max_depth


def materialize(params: TreeParams, max_nodes: Optional[int] = None):
    """Best-effort materialization of ``params``.

    Returns a :class:`MaterializedTree` when the tree fits under the
    node cap, or the implicit :class:`Tree` otherwise -- either way the
    result serves the search-space protocol over the identical shape.
    """
    mat = MaterializedTree.build(params, max_nodes=max_nodes)
    return mat if mat is not None else Tree(params)


#: The process-wide tree cache, least recently used first: trees by
#: their ``TreeParams``, service task forests by (shape, stream seed,
#: tasks).  Forked sweep workers inherit it copy-on-write.
_TREES: "OrderedDict[object, object]" = OrderedDict()
_TREES_LOCK = threading.Lock()


def _cost(tree) -> int:
    return getattr(tree, "n_nodes", 1)  # an implicit Tree is charged one


def tree_for(params: TreeParams):
    """The process-wide tree for ``params``: materialized when it fits
    under :func:`node_cap`, else the implicit :class:`Tree` (cached too,
    so the abandoned expansion is paid once).
    """
    return cached(params, lambda cap: materialize(params, max_nodes=cap))


def cached(key, build):
    """``build(node_cap())``, once per ``key`` while it stays cached.
    The cache holds at most :func:`node_cap` nodes in total: least-
    recently-used entries are dropped until the newcomer fits, and a
    newcomer over the cap on its own is returned uncached.
    """
    with _TREES_LOCK:
        tree = _TREES.get(key)
        if tree is not None:
            _TREES.move_to_end(key)
            return tree
        cap = node_cap()
        tree = build(cap)
        room = cap - _cost(tree)
        if room >= 0:
            while _TREES and sum(map(_cost, _TREES.values())) > room:
                _TREES.popitem(last=False)
            _TREES[key] = tree
        return tree


def expected_node_count(params: TreeParams) -> int:
    """The sequential node count every parallel run must reproduce: the
    materialized expansion's size when there is one, else a count of
    the implicit tree -- by the compiled kernel, which keeps no arrays,
    or a :func:`count_tree` traversal.  A tree past :data:`_COUNT_GUARD`
    nodes raises :class:`~repro.errors.ConfigError` either way.
    """
    tree = tree_for(params)
    if isinstance(tree, MaterializedTree):
        return tree.n_nodes
    kernel = _compiled(tree)
    if kernel is None:
        return count_tree(params, max_nodes=_COUNT_GUARD).n_nodes
    counted = kernel([tree.root()], _COUNT_GUARD, True)
    if counted is None:
        raise ConfigError(
            f"tree exceeded max_nodes={_COUNT_GUARD}; params too close "
            f"to critical: {params.describe()}")
    return counted[0]
