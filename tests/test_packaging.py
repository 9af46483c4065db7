"""``repro`` declares no runtime dependency, so it must run without one.

``pyproject.toml`` lists numpy and scipy only as the ``analysis`` extra
(the power-law fit of ``repro.uts.stats.tail_exponent``).  An
interpreter where neither can be imported -- ``sys.modules[name] =
None`` makes ``import name`` raise ``ImportError`` -- must still import
the package, run an experiment through the library and through the
CLI, and fail the one fit with an error that names what to install.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
sys.modules["numpy"] = None
sys.modules["scipy"] = None

import repro
from repro.harness.config import T1_TEST
res = repro.run_experiment("upc-distmem", tree=T1_TEST, threads=4,
                           chunk_size=4, verify=True)
print("library", res.total_nodes)

from repro.harness.cli import main
code = main(["run", "--algorithm", "upc-distmem", "--threads", "4",
             "--chunk-size", "4", "--b0", "64", "--q", "0.48",
             "--tree-seed", "1"])
print("cli", code or 0)

from repro.errors import ConfigError
from repro.uts.stats import subtree_sizes, tail_exponent
try:
    tail_exponent(subtree_sizes(T1_TEST))
except ConfigError as exc:
    print("fit", exc)
"""


def fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    """``python -c code`` over this checkout's ``src``, with no backend
    or cache override inherited from the invoking shell."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_FASTPATH", "REPRO_TREE_CACHE_CAP")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + env.get("PYTHONPATH", "").split(os.pathsep))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_runs_without_numpy_and_scipy():
    done = fresh_interpreter(SCRIPT)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "library 2119" in lines
    assert "cli 0" in lines
    [fit] = [line for line in lines if line.startswith("fit ")]
    assert "numpy" in fit and "scipy" in fit and "repro[analysis]" in fit


def test_the_analysis_extra_is_declared():
    text = (SRC.parent / "pyproject.toml").read_text()
    assert 'analysis = ["numpy", "scipy"]' in text
    assert "\ndependencies" not in text
