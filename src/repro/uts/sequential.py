"""Sequential UTS search: the speedup baseline (paper Sect. 4.1).

The sequential explorer is the reference for three things:

* the *correct answer* (total node count) every parallel run must match,
* the single-thread work ``T1 = n_nodes * node_visit_time`` against
  which simulated speedups are computed,
* basic tree statistics (depth, leaf count) used in EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.uts.params import TreeParams
from repro.uts.tree import Tree

__all__ = ["TreeStats", "count_tree", "sequential_search"]


@dataclass(frozen=True)
class TreeStats:
    """Exact statistics of one UTS tree."""

    n_nodes: int
    n_leaves: int
    max_depth: int
    #: Wall-clock seconds the *host* Python needed (not simulated time).
    host_seconds: float

    @property
    def interior(self) -> int:
        return self.n_nodes - self.n_leaves


def count_tree(params: TreeParams, max_nodes: int = 500_000_000) -> TreeStats:
    """Fully traverse the tree; exact node/leaf/depth counts.

    ``max_nodes`` guards against accidentally launching a near-critical
    tree (e.g. the paper's 157-billion-node parameters) in a test: past
    it, :class:`~repro.errors.ConfigError` names the tree.
    """
    tree = Tree(params)
    n_nodes = 0
    n_leaves = 0
    max_depth = 0
    t0 = time.perf_counter()
    stack = [tree.root()]
    pop = stack.pop
    extend = stack.extend
    children = tree.children
    while stack:
        node = pop()
        n_nodes += 1
        if n_nodes > max_nodes:
            raise ConfigError(
                f"tree exceeded max_nodes={max_nodes}; "
                f"params too close to critical: {params.describe()}"
            )
        if node[1] > max_depth:
            max_depth = node[1]
        kids = children(node)
        if kids:
            extend(kids)
        else:
            n_leaves += 1
    return TreeStats(n_nodes=n_nodes, n_leaves=n_leaves, max_depth=max_depth,
                     host_seconds=time.perf_counter() - t0)


def sequential_search(params: TreeParams) -> int:
    """Node count only (thin wrapper kept for API symmetry)."""
    return count_tree(params).n_nodes
