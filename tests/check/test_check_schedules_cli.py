"""``tools/check_schedules.py`` rejects bad input before the first cell.

``check_run`` folds every :class:`~repro.errors.ReproError` into a
failed outcome, ``ConfigError`` included, so input no cell can run with
used to come back as schedule "failures" (and be handed to the
shrinker) or die in a traceback once a sweep reached the scenario
cells.  The fuzzer CLI keeps the ``repro-uts`` contract instead: usage,
one ``error:`` line naming the input, exit status 2.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "check_schedules.py"


@pytest.fixture(scope="module")
def fuzzer():
    spec = importlib.util.spec_from_file_location("check_schedules", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv, named", [
    (["--variants", "nope"], "unknown algorithm 'nope'"),
    (["--threads", "0"], "--threads must be >= 1"),
    (["--fault-specs", "kill=x"], "fault spec: kill='x'"),
    (["--chunk-size", "0"], "--chunk-size must be >= 1"),
    (["--scenarios", "nosuch"], "unknown scenario 'nosuch'"),
], ids=["variant", "threads", "fault-spec", "chunk-size", "scenario"])
def test_bad_input_is_a_named_error_before_any_cell(
        fuzzer, monkeypatch, capsys, tmp_path, argv, named):
    def no_cells(**cell):
        raise AssertionError(f"a cell ran on bad input: {cell}")

    monkeypatch.setattr(fuzzer, "check_run", no_cells)
    monkeypatch.setattr(fuzzer, "check_service_run", no_cells)
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exit_info:
        fuzzer.main(argv + ["--out", str(out)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and named in errors[0]
    assert not out.exists()


def test_good_input_still_sweeps(fuzzer, tmp_path, capsys):
    out = tmp_path / "report.json"
    status = fuzzer.main([
        "--variants", "upc-distmem", "--seeds", "1", "--service-seeds", "-1",
        "--scenarios", "--fault-specs", "stall=0.05", "--out", str(out)])
    assert status == 0 and out.exists()
    assert "CLEAN SWEEP" in capsys.readouterr().out
