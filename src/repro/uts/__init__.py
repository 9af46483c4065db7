"""The Unbalanced Tree Search (UTS) benchmark workload.

* :class:`~repro.uts.params.TreeParams` -- tree parameterization
  (binomial/geometric shapes; the paper's exact trees as constants).
* :class:`~repro.uts.tree.Tree` -- implicit tree generation via
  splittable RNG engines (SHA-1, splitmix).
* :func:`~repro.uts.sequential.count_tree` -- sequential reference
  traversal (the speedup baseline and the correctness oracle).
* :class:`~repro.uts.materialized.MaterializedTree` -- expand-once
  flat-array tree shared across repeated runs of one parameterization.
* :mod:`repro.uts.stats` -- imbalance statistics.
"""

from repro.uts.materialized import MaterializedTree, materialize
from repro.uts.params import T1_PAPER, T3_PAPER, TreeParams
from repro.uts.rng import RAND_MAX, get_engine
from repro.uts.sequential import TreeStats, count_tree, sequential_search
from repro.uts.stats import ImbalanceStats, root_subtree_imbalance, subtree_sizes
from repro.uts.tree import Node, Tree

__all__ = [
    "TreeParams",
    "T1_PAPER",
    "T3_PAPER",
    "Tree",
    "Node",
    "MaterializedTree",
    "materialize",
    "TreeStats",
    "count_tree",
    "sequential_search",
    "ImbalanceStats",
    "root_subtree_imbalance",
    "subtree_sizes",
    "get_engine",
    "RAND_MAX",
]
