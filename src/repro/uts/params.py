"""UTS tree parameterization.

Two tree shapes from the UTS family:

* **binomial** -- the paper's workload.  The root has ``b0`` children;
  every other node has ``m`` children with probability ``q`` and none
  with probability ``1 - q``.  With ``m*q < 1`` the branching process
  is subcritical: every subtree is finite, the expected subtree size is
  the same at every node (``1 / (1 - m*q)``), and the size distribution
  is extremely heavy-tailed as ``m*q -> 1`` -- the "frequent small
  subtrees and occasionally enormous subtrees" of Sect. 2.

* **geometric** -- provided for completeness with the wider UTS
  benchmark: a node at depth ``d`` draws its child count from a
  geometric distribution whose mean ``b_d`` follows one of the UTS
  shape functions (``linear``, ``expdec``, ``cyclic``, ``fixed``).

The paper's exact parameter sets (footnotes 1-2) are provided as
:data:`T1_PAPER` / :data:`T3_PAPER`; the scaled counterparts actually
run by the reproduction harness live in :mod:`repro.harness.config`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import ConfigError

__all__ = ["TreeParams", "T1_PAPER", "T3_PAPER"]


@dataclass(frozen=True)
class TreeParams:
    """Immutable description of one UTS tree."""

    shape: str = "binomial"
    #: Branching factor of the root node (``b`` in the paper).
    b0: int = 2000
    #: Non-root branching factor when a node is interior (``m``).
    m: int = 2
    #: Probability a non-root node is interior (``q``).
    q: float = 0.2
    #: Root RNG seed (``r``).
    seed: int = 0
    #: Geometric shape only: depth cutoff.
    gen_mx: int = 6
    #: Geometric shape only: branching-factor shape function
    #: ("linear", "expdec", "cyclic", or "fixed", as in reference UTS).
    geo_shape: str = "linear"
    #: RNG engine: "sha1" (default) or "splitmix".
    engine: str = "sha1"
    #: UTS's compute-granularity knob: per-node work multiplier, for
    #: emulating searches whose state evaluation costs more than one
    #: hash (e.g. branch-and-bound bound functions).  Scales the
    #: simulated per-node visit time; the tree itself is unchanged.
    compute_granularity: int = 1

    def __post_init__(self) -> None:
        if self.shape not in ("binomial", "geometric"):
            raise ConfigError(f"unknown tree shape {self.shape!r}")
        if self.b0 < 0:
            raise ConfigError("b0 must be >= 0")
        if self.compute_granularity < 1:
            raise ConfigError("compute_granularity must be >= 1")
        if self.shape == "binomial":
            if not (0.0 <= self.q < 1.0):
                raise ConfigError(f"q must be in [0, 1), got {self.q}")
            if self.m < 1:
                raise ConfigError("m must be >= 1 for binomial trees")
            if self.m * self.q >= 1.0:
                raise ConfigError(
                    f"supercritical tree (m*q = {self.m * self.q:.6f} >= 1): "
                    "expected size is infinite"
                )
        else:
            if self.gen_mx < 1:
                raise ConfigError("gen_mx must be >= 1 for geometric trees")
            if self.geo_shape not in ("linear", "expdec", "cyclic", "fixed"):
                raise ConfigError(
                    f"unknown geometric shape {self.geo_shape!r}; "
                    "expected linear/expdec/cyclic/fixed"
                )
            if self.geo_shape == "fixed" and self.b0 >= 2 and self.gen_mx > 12:
                raise ConfigError(
                    "fixed-shape geometric tree would have ~b0^gen_mx nodes; "
                    "reduce gen_mx"
                )

    # -- constructors -------------------------------------------------------

    @classmethod
    def binomial(cls, b0: int = 2000, m: int = 2, q: float = 0.2,
                 seed: int = 0, engine: str = "sha1") -> "TreeParams":
        return cls(shape="binomial", b0=b0, m=m, q=q, seed=seed, engine=engine)

    @classmethod
    def geometric(cls, b0: int = 4, gen_mx: int = 6, seed: int = 0,
                  engine: str = "sha1",
                  geo_shape: str = "linear") -> "TreeParams":
        return cls(shape="geometric", b0=b0, gen_mx=gen_mx, seed=seed,
                   engine=engine, geo_shape=geo_shape)

    # -- derived quantities --------------------------------------------------

    def expected_size(self) -> Optional[float]:
        """Expected node count (binomial trees only; None for geometric)."""
        if self.shape != "binomial":
            return None
        mean_subtree = 1.0 / (1.0 - self.m * self.q)
        return 1.0 + self.b0 * mean_subtree

    def with_seed(self, seed: int) -> "TreeParams":
        return replace(self, seed=seed)

    def with_engine(self, engine: str) -> "TreeParams":
        return replace(self, engine=engine)

    def describe(self) -> str:
        if self.shape == "binomial":
            return (f"binomial(b0={self.b0}, m={self.m}, q={self.q}, "
                    f"r={self.seed}, engine={self.engine})")
        return (f"geometric(b0={self.b0}, gen_mx={self.gen_mx}, "
                f"shape={self.geo_shape}, r={self.seed}, "
                f"engine={self.engine})")


#: Paper footnote 1: the 10.6-billion-node tree used on Kitty Hawk.
#: (Runnable in principle; far beyond a Python session's budget.)
T1_PAPER = TreeParams.binomial(b0=2000, m=2, q=0.5 * (1 - 1e-8), seed=0)

#: Paper footnote 2: the 157-billion-node tree used on Topsail.
T3_PAPER = TreeParams.binomial(b0=2000, m=2, q=0.5 * (1 - 1e-6), seed=559)
