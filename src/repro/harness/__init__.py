"""Experiment harness: the experiment registry, per-figure renderers,
sweeps, plots, persistence, CLI."""

from repro.harness.config import FIG4, FIG5, FIG6, SCALES, FigureSetup, setup_for
from repro.harness.experiments import EXPERIMENTS, run_experiments
from repro.harness.figures import (
    AblationResult,
    ClaimsResult,
    FigureResult,
    ablation,
    figure4,
    figure5,
    figure6,
    headline_claims,
    sequential_baseline,
)
from repro.harness.io import load_json, save_csv, save_json
from repro.harness.parallel import JobSpec, execute_jobs, resolve_jobs
from repro.harness.runner import expected_node_count, run_experiment, tree_for
from repro.harness.sweep import SweepResult, run_sweep

__all__ = [
    "run_experiment",
    "expected_node_count",
    "tree_for",
    "JobSpec",
    "execute_jobs",
    "resolve_jobs",
    "FigureSetup",
    "setup_for",
    "SCALES",
    "FIG4",
    "FIG5",
    "FIG6",
    "run_sweep",
    "SweepResult",
    "figure4",
    "figure5",
    "figure6",
    "ablation",
    "headline_claims",
    "sequential_baseline",
    "FigureResult",
    "AblationResult",
    "ClaimsResult",
    "save_json",
    "save_csv",
    "load_json",
    "EXPERIMENTS",
    "run_experiments",
]
