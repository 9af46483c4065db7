"""Imbalance statistics for UTS trees.

Sect. 2 of the paper motivates UTS by the extreme variability of
subtree sizes ("over 99.9% of the work is contained in just one of the
2000 subtrees below the root"; "frequent small subtrees and
occasionally enormous subtrees").  These helpers quantify both claims
for the scaled trees the reproduction actually runs:

* :func:`root_subtree_imbalance` -- concentration measures (largest
  fraction, Gini) over the root's immediate subtrees.
* :func:`tail_exponent` -- the power-law exponent of the subtree-size
  survival function.  Branching-process theory says a (near-)critical
  binomial tree has P(S > s) ~ s^(-1/2); measuring it confirms the
  scaled workloads sit in the same heavy-tailed regime as the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.uts.params import TreeParams
from repro.uts.tree import Node, Tree

__all__ = ["ImbalanceStats", "subtree_sizes", "root_subtree_imbalance",
           "tail_exponent", "stack_depth_profile", "DepthProfile"]


@dataclass(frozen=True)
class ImbalanceStats:
    """Distribution summary of the root's immediate subtree sizes."""

    sizes: tuple
    total: int

    @property
    def largest(self) -> int:
        return max(self.sizes) if self.sizes else 0

    @property
    def largest_fraction(self) -> float:
        """Fraction of all work under the single largest root subtree."""
        return self.largest / self.total if self.total else 0.0

    @property
    def mean(self) -> float:
        return self.total / len(self.sizes) if self.sizes else 0.0

    @property
    def gini(self) -> float:
        """Gini coefficient of subtree sizes (0 balanced, ->1 extreme)."""
        n = len(self.sizes)
        if n == 0 or self.total == 0:
            return 0.0
        ordered = sorted(self.sizes)
        cum = 0
        weighted = 0
        for i, s in enumerate(ordered, start=1):
            weighted += i * s
            cum += s
        return (2.0 * weighted) / (n * cum) - (n + 1.0) / n


def subtree_size(tree: Tree, node: Node, max_nodes: int = 500_000_000) -> int:
    """Exact node count of the subtree rooted at ``node``."""
    count = 0
    stack = [node]
    pop = stack.pop
    extend = stack.extend
    children = tree.children
    while stack:
        count += 1
        if count > max_nodes:
            raise ConfigError(f"subtree exceeded max_nodes={max_nodes}; "
                              f"params too close to critical: "
                              f"{tree.params.describe()}")
        extend(children(pop()))
    return count


def subtree_sizes(params: TreeParams) -> list:
    """Sizes of each immediate subtree below the root."""
    tree = Tree(params)
    return [subtree_size(tree, child) for child in tree.children(tree.root())]


def root_subtree_imbalance(params: TreeParams) -> ImbalanceStats:
    """Imbalance summary across the root's immediate subtrees."""
    sizes = subtree_sizes(params)
    return ImbalanceStats(sizes=tuple(sizes), total=sum(sizes) + 1)


@dataclass(frozen=True)
class DepthProfile:
    """DFS stack-depth statistics over a full sequential traversal.

    The stack depth at each visit is (an upper bound on) the work
    instantaneously available to thieves -- the tree's *parallel
    frontier*.  For near-critical binomial trees its mean scales like
    sqrt(n), which is what limits how many threads a tree of a given
    size can feed (see docs/simulation-model.md).
    """

    n_nodes: int
    mean_depth: float
    max_depth_seen: int
    #: Stack depth sampled at evenly spaced points through the search.
    samples: tuple

    @property
    def normalized_mean(self) -> float:
        """mean_depth / sqrt(n): roughly constant across sizes near
        criticality."""
        return self.mean_depth / (self.n_nodes ** 0.5)


def stack_depth_profile(params: TreeParams, n_samples: int = 100,
                        max_nodes: int = 500_000_000) -> DepthProfile:
    """Traverse the tree, recording the DFS stack-depth trajectory."""
    tree = Tree(params)
    stack = [tree.root()]
    pop = stack.pop
    extend = stack.extend
    children = tree.children
    depth_sum = 0
    max_depth = 0
    count = 0
    trajectory = []
    while stack:
        d = len(stack)
        depth_sum += d
        if d > max_depth:
            max_depth = d
        trajectory.append(d)
        count += 1
        if count > max_nodes:
            raise ConfigError(f"tree exceeded max_nodes={max_nodes}; "
                              f"params too close to critical: "
                              f"{params.describe()}")
        extend(children(pop()))
    step = max(1, count // n_samples)
    samples = tuple(trajectory[::step][:n_samples])
    return DepthProfile(n_nodes=count, mean_depth=depth_sum / count,
                        max_depth_seen=max_depth, samples=samples)


def tail_exponent(sizes, min_size: int = 2) -> tuple:
    """Power-law exponent of the survival function P(S > s).

    Fits ``log P(S > s) = alpha * log s + c`` by least squares over the
    empirical CCDF of ``sizes`` (ignoring sizes below ``min_size``).
    Returns ``(alpha, r_value)``.  Near-critical binomial UTS trees
    should give alpha close to -1/2.
    """
    # Imported here: numpy and scipy.stats were 2.5 s of a ~3 s ``import
    # repro``, this one fit is their only use, and the package declares
    # neither as a dependency (they are its ``analysis`` extra).
    try:
        import numpy as np
        from scipy.stats import linregress
    except ImportError as exc:
        raise ConfigError(
            f"tail_exponent needs numpy and scipy ({exc}); install the "
            "'analysis' extra: pip install 'repro[analysis]'") from None

    data = np.asarray([s for s in sizes if s >= min_size], dtype=float)
    if data.size < 10:
        raise ValueError(f"need >= 10 tail samples, got {data.size}")
    data.sort()
    # CCDF: fraction of samples strictly greater than each value.
    ccdf = 1.0 - np.arange(1, data.size + 1) / data.size
    keep = ccdf > 0  # drop the final point (log 0)
    log_s = np.log(data[keep])
    log_p = np.log(ccdf[keep])
    fit = linregress(log_s, log_p)
    return float(fit.slope), float(fit.rvalue)
