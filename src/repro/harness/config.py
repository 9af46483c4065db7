"""Experiment definitions for every figure in the paper's evaluation.

The paper's machines had up to 1024 dedicated Xeon cores and searched
trees of 10.6 and 157 *billion* nodes.  A Python process cannot; we
scale both axes together, keeping the work-per-thread and the
imbalance structure in the regime where the paper's effects are
visible (see DESIGN.md Sect. 2 and EXPERIMENTS.md for the mapping).

Three scales:

* ``test``  -- seconds; used by the test suite.
* ``quick`` -- seconds per figure; the default, and CI's claim gate.
* ``full``  -- tens of minutes; the flagship numbers in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import ConfigError
from repro.uts.params import TreeParams

__all__ = ["FigureSetup", "FIG4", "FIG5", "FIG6", "setup_for", "SCALES"]

SCALES = ("test", "quick", "full")

# --- the scaled stand-ins for the paper's trees -----------------------------

#: Scaled T1 stand-in (paper: 10.6B nodes, b=2000, q=(1-1e-8)/2, r=0).
T1_TEST = TreeParams.binomial(b0=100, m=2, q=0.49, seed=0)            # ~2.1k
T1_QUICK = TreeParams.binomial(b0=500, m=2, q=0.499, seed=0)          # ~215k
T1_FULL = TreeParams.binomial(b0=2000, m=2, q=0.4995, seed=0,
                              engine="splitmix")                       # ~1.51M

#: Scaled T3 stand-in (paper: 157B nodes, b=2000, q=(1-1e-6)/2, r=559).
T3_TEST = TreeParams.binomial(b0=100, m=2, q=0.49, seed=559)
T3_QUICK = TreeParams.binomial(b0=500, m=2, q=0.499, seed=559)
T3_FULL = TreeParams.binomial(b0=4000, m=2, q=0.49955, seed=2,
                              engine="splitmix")                       # ~9.7M


@dataclass(frozen=True)
class FigureSetup:
    """Everything needed to regenerate one figure at one scale."""

    figure: str
    scale: str
    tree: TreeParams
    preset: str
    algorithms: List[str]
    #: Chunk sizes swept (figure 4) or the fixed chunk size (figures 5/6).
    chunk_sizes: List[int]
    #: Thread counts swept (figures 5/6) or the fixed count (figure 4).
    thread_counts: List[int]

    def describe(self) -> str:
        return (f"{self.figure}[{self.scale}] preset={self.preset} "
                f"tree={self.tree.describe()} threads={self.thread_counts} "
                f"k={self.chunk_sizes}")


# --- Figure 4: speedup & performance vs chunk size (paper: 256 thr, KH) ------

FIG4 = {
    "test": FigureSetup(
        figure="fig4", scale="test", tree=T1_TEST, preset="kittyhawk",
        algorithms=["upc-distmem", "upc-term-rapdif", "upc-term",
                    "upc-sharedmem", "mpi-ws"],
        chunk_sizes=[2, 4, 8], thread_counts=[8],
    ),
    "quick": FigureSetup(
        figure="fig4", scale="quick", tree=T1_QUICK, preset="kittyhawk",
        algorithms=["upc-distmem", "upc-term-rapdif", "upc-term",
                    "upc-sharedmem", "mpi-ws"],
        chunk_sizes=[1, 2, 4, 8, 16, 32, 64], thread_counts=[16],
    ),
    "full": FigureSetup(
        figure="fig4", scale="full", tree=T1_FULL, preset="kittyhawk",
        algorithms=["upc-distmem", "upc-term-rapdif", "upc-term",
                    "upc-sharedmem", "mpi-ws"],
        chunk_sizes=[1, 2, 4, 8, 16, 32, 64, 128], thread_counts=[32],
    ),
}

# --- Figure 5: scaling on Topsail (paper: up to 1024 threads, 157B tree) -----

FIG5 = {
    "test": FigureSetup(
        figure="fig5", scale="test", tree=T3_TEST, preset="topsail",
        algorithms=["upc-distmem", "mpi-ws"],
        chunk_sizes=[4], thread_counts=[2, 4, 8],
    ),
    "quick": FigureSetup(
        figure="fig5", scale="quick", tree=T3_QUICK, preset="topsail",
        algorithms=["upc-distmem", "mpi-ws"],
        chunk_sizes=[8], thread_counts=[2, 4, 8, 16],
    ),
    "full": FigureSetup(
        figure="fig5", scale="full", tree=T3_FULL, preset="topsail",
        algorithms=["upc-distmem", "mpi-ws", "upc-sharedmem"],
        chunk_sizes=[8], thread_counts=[4, 8, 16, 32, 64],
    ),
}

# --- Figure 6: shared memory (SGI Altix 3700, up to 64 processors) -----------

FIG6 = {
    "test": FigureSetup(
        figure="fig6", scale="test", tree=T1_TEST, preset="altix",
        algorithms=["upc-sharedmem", "upc-distmem", "mpi-ws"],
        chunk_sizes=[4], thread_counts=[2, 4, 8],
    ),
    "quick": FigureSetup(
        figure="fig6", scale="quick", tree=T1_QUICK, preset="altix",
        algorithms=["upc-sharedmem", "upc-distmem", "mpi-ws"],
        chunk_sizes=[8], thread_counts=[2, 4, 8, 16],
    ),
    "full": FigureSetup(
        figure="fig6", scale="full", tree=T1_FULL, preset="altix",
        algorithms=["upc-sharedmem", "upc-distmem", "mpi-ws"],
        chunk_sizes=[8], thread_counts=[2, 4, 8, 16, 32, 64],
    ),
}

_FIGS = {"fig4": FIG4, "fig5": FIG5, "fig6": FIG6}


def setup_for(figure: str, scale: str) -> FigureSetup:
    """Look up the setup for a figure at a scale."""
    if figure not in _FIGS:
        raise ConfigError(f"unknown figure {figure!r}; available: {sorted(_FIGS)}")
    if scale not in SCALES:
        raise ConfigError(f"unknown scale {scale!r}; available: {SCALES}")
    return _FIGS[figure][scale]
