"""Smoke tests keeping the example scripts green.

Each example is importable and exposes ``main``; the fast ones are
executed end-to-end in-process.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
ALL_EXAMPLES = sorted(p.stem for p in EXAMPLES_DIR.glob("*.py"))


def load_example(name):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_expected_examples_present():
    assert "quickstart" in ALL_EXAMPLES
    assert len(ALL_EXAMPLES) >= 7


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_has_main(name):
    mod = load_example(name)
    assert callable(getattr(mod, "main", None)), f"{name}.main missing"
    assert mod.__doc__, f"{name} lacks a module docstring"


def test_quickstart_runs(capsys):
    load_example("quickstart").main()
    out = capsys.readouterr().out
    assert "parallel efficiency" in out


def test_custom_search_space_runs(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["custom_search_space.py", "7"])
    load_example("custom_search_space").main()
    out = capsys.readouterr().out
    assert "7-queens" in out
    assert "OK" in out


def test_execution_timeline_runs(capsys):
    load_example("execution_timeline").main()
    out = capsys.readouterr().out
    assert "legend:" in out


def test_workload_anatomy_runs(capsys):
    pytest.importorskip("scipy.stats")  # the power-law fit: `analysis` extra
    load_example("workload_anatomy").main()
    out = capsys.readouterr().out
    assert "tail_exponent" in out
