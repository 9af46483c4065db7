"""Experiment harness: the experiment registry, per-figure renderers,
sweeps, plots, persistence, CLI.

The public names are imported on first use (PEP 562): a process that
needs only :mod:`~repro.harness.config` and
:mod:`~repro.harness.parallel` loads neither the registry nor the
renderers nor the process pool.
"""

from repro import _lazy

#: Each public name and the module it is imported from on first use.
_HOMES = {
    "run_experiment": "repro.harness.runner",
    "expected_node_count": "repro.harness.runner",
    "tree_for": "repro.harness.runner",
    "JobSpec": "repro.harness.parallel",
    "execute_jobs": "repro.harness.parallel",
    "resolve_jobs": "repro.harness.parallel",
    "FigureSetup": "repro.harness.config",
    "setup_for": "repro.harness.config",
    "SCALES": "repro.harness.config",
    "FIG4": "repro.harness.config",
    "FIG5": "repro.harness.config",
    "FIG6": "repro.harness.config",
    "run_sweep": "repro.harness.sweep",
    "run_cells": "repro.harness.sweep",
    "CellTable": "repro.harness.sweep",
    "ablation": "repro.harness.figures",
    "headline_claims": "repro.harness.figures",
    "sequential_baseline": "repro.harness.figures",
    "save_json": "repro.harness.io",
    "save_csv": "repro.harness.io",
    "load_json": "repro.harness.io",
    "EXPERIMENTS": "repro.harness.experiments",
    "run_experiments": "repro.harness.experiments",
}

__all__ = [*_HOMES]
__getattr__, __dir__ = _lazy(globals(), _HOMES)
