"""The load-balancing implementations (Figure 3 legend + extensions).

========================  ======================================  ==========
Label                     Description                             Source
========================  ======================================  ==========
``upc-sharedmem``         lock-based stacks + cancelable barrier  Sect. 3.1
``upc-term``              + streamlined termination               Sect. 3.3.1
``upc-term-rapdif``       + rapid diffusion (steal half)          Sect. 3.3.2
``upc-distmem``           + lock-less stack (request/response)    Sect. 3.3.3
``mpi-ws``                message-passing work stealing           Sect. 3.2
``upc-distmem-hier``      distmem + node-local-first probing      6.2 (ext.)
``ws-fencefree``          fence-free steal, multiplicity allowed  2008.04424
``tree-split``            bulk-synchronous tree splitting         1710.00122
========================  ======================================  ==========

The last two are post-2008 designs landed as sixth/seventh variants:
``ws-fencefree`` relaxes correctness (duplication bounded, never loss;
see I1'/I3' in :mod:`repro.check.invariants`) and ``tree-split`` is the
non-work-stealing baseline the E14 ablation compares against.
"""

from repro.errors import ConfigError
from repro.ws.algorithms.base import AlgorithmBase
from repro.ws.algorithms.distmem import UpcDistMem, UpcDistMemHier
from repro.ws.algorithms.fencefree import WsFenceFree
from repro.ws.algorithms.lock_based import (UpcSharedMem, UpcTerm,
                                            UpcTermRapdif)
from repro.ws.algorithms.mpi_ws import MpiWorkStealing
from repro.ws.algorithms.treesplit import TreeSplit

ALGORITHMS = {
    cls.name: cls
    for cls in (UpcSharedMem, UpcTerm, UpcTermRapdif, UpcDistMem,
                MpiWorkStealing, UpcDistMemHier, WsFenceFree, TreeSplit)
}

#: The order used in the paper's figures (best first).
FIGURE_ORDER = ["upc-distmem", "upc-term-rapdif", "upc-term",
                "upc-sharedmem", "mpi-ws"]


def get_algorithm(name: str):
    """Look up an algorithm class by its Figure-3 label."""
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise ConfigError(
            f"unknown algorithm {name!r}; available: {sorted(ALGORITHMS)}"
        ) from None


__all__ = [
    "AlgorithmBase",
    "UpcDistMemHier",
    "UpcSharedMem",
    "UpcTerm",
    "UpcTermRapdif",
    "UpcDistMem",
    "MpiWorkStealing",
    "WsFenceFree",
    "TreeSplit",
    "ALGORITHMS",
    "FIGURE_ORDER",
    "get_algorithm",
]
