"""repro: a reproduction of *Scalable Dynamic Load Balancing Using UPC*
(Olivier & Prins, ICPP 2008).

The package implements the Unbalanced Tree Search benchmark, a
discrete-event simulated PGAS (UPC-like) machine with per-platform
communication cost models, and the paper's five load-balancing
implementations (four UPC variants plus the MPI baseline).

Quickstart::

    from repro import run_experiment, TreeParams

    result = run_experiment(
        "upc-distmem",
        tree=TreeParams.binomial(b0=64, q=0.48, seed=1),
        threads=16,
        preset="kittyhawk",
        chunk_size=8,
        verify=True,
    )
    print(result.summary())

Every public name but ``__version__`` is imported on first use (PEP
562), so a process that needs one layer loads that layer only.
"""

import importlib

from repro._version import __version__

#: Each public name and the module it is imported from on first use.
_HOMES = {
    "run_experiment": "repro.harness.runner",
    "expected_node_count": "repro.harness.runner",
    "run_sweep": "repro.harness.sweep",
    "RunResult": "repro.metrics",
    "TreeParams": "repro.uts",
    "Tree": "repro.uts",
    "MaterializedTree": "repro.uts",
    "materialize": "repro.uts",
    "count_tree": "repro.uts",
    "T1_PAPER": "repro.uts",
    "T3_PAPER": "repro.uts",
    "NetworkModel": "repro.net",
    "get_preset": "repro.net",
    "PRESETS": "repro.net",
    "KITTYHAWK": "repro.net",
    "TOPSAIL": "repro.net",
    "ALTIX": "repro.net",
    "SHAREDMEM": "repro.net",
    "WsConfig": "repro.ws",
    "TraceSink": "repro.obs",
    "FaultPlan": "repro.faults",
    "FaultCounters": "repro.faults",
    "parse_fault_spec": "repro.faults",
    "ALGORITHMS": "repro.ws",
    "FIGURE_ORDER": "repro.ws",
    "get_algorithm": "repro.ws",
    "ReproError": "repro.errors",
    "SimulationError": "repro.errors",
    "DeadlockError": "repro.errors",
    "EventLimitExceeded": "repro.errors",
    "ProtocolError": "repro.errors",
    "ConfigError": "repro.errors",
    "SweepWorkerError": "repro.errors",
}

__all__ = ["__version__", *_HOMES]


def _lazy(namespace: dict, homes: dict):
    """A package's PEP 562 ``__getattr__`` and ``__dir__``: each name
    of ``homes`` is imported from its module on first use and then
    bound in ``namespace`` (the package's globals)."""

    def __getattr__(name: str):
        home = homes.get(name)
        if home is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(home), name)
        return value

    def __dir__() -> list:
        return sorted({*namespace, *homes})

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy(globals(), _HOMES)
