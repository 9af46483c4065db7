"""Tests for result persistence and the CLI."""

import csv
import json

import pytest

from repro.harness import load_json, run_sweep, save_csv, save_json, setup_for
from repro.harness.cli import build_parser, main


@pytest.fixture(scope="module")
def fig4():
    return run_sweep(setup_for("fig4", "test"))


class TestIo:
    def test_save_and_load_json(self, fig4, tmp_path):
        path = save_json(fig4, tmp_path / "out" / "fig4.json")
        data = load_json(path)
        assert data["scale"] == "test"
        assert len(data["runs"]) == len(fig4.cells)

    def test_save_csv(self, fig4, tmp_path):
        path = save_csv(fig4, tmp_path / "fig4.csv")
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(fig4.cells)
        assert {"algorithm", "speedup", "efficiency"} <= set(rows[0])


class TestCli:
    def test_parser_subcommands(self):
        p = build_parser()
        args = p.parse_args(["experiment", "E2", "E5", "--scale", "test"])
        assert args.command == "experiment"
        assert args.ids == ["E2", "E5"]
        assert args.scale == "test"

    def test_run_subcommand(self, capsys):
        rc = main(["run", "--algorithm", "upc-distmem", "--threads", "4",
                   "--chunk-size", "2", "--b0", "30", "--q", "0.4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "upc-distmem" in out

    @pytest.mark.parametrize("argv, named", [
        (["run", "--algorithm", "upc-distmem", "--threads", "0"], "threads"),
        (["run", "--chunk-size", "0"], "chunk_size"),
        (["run", "--faults", "kill=x"], "fault spec: kill='x'"),
        (["run", "--idle-strategy", "park", "--faults", "drop=0.1"],
         "fail-stop faults only"),
        (["serve", "--arrivals", "poisson:rate=abc"],
         "arrival spec: rate='abc' is not a number"),
        (["run", "--threads", "4", "--faults", "kill=1@nan"],
         "fault spec: kill='nan' is not a finite number"),
        (["run", "--faults", "stale=0.3,stale-window=nan"],
         "fault spec: stale-window='nan' is not a finite number"),
        (["serve", "--arrivals", "poisson:rate=nan"],
         "arrival spec: rate='nan' is not a finite number"),
        (["serve", "--arrivals", "poisson:rate=inf"],
         "arrival spec: rate='inf' is not a finite number"),
        (["serve", "--arrivals", "bursty:rate=1e5,burst=nan"],
         "arrival spec: burst='nan' is not a finite number"),
        (["experiment", "E99"], "unknown experiment 'E99'"),
        (["experiment", "--jobs", "-1"], "jobs=-1 is negative"),
        (["timeline", "--threads", "2", "--b0", "20", "--width", "0"],
         "timeline width=0"),
    ], ids=["threads", "chunk-size", "fault-spec", "park-faults", "arrivals",
            "kill-nan", "stale-window-nan", "rate-nan", "rate-inf",
            "burst-nan", "experiment-id", "experiment-jobs",
            "timeline-width"])
    def test_bad_input_is_a_named_error_not_a_traceback(self, capsys, argv,
                                                        named):
        """Exit status 2 and one ``repro-uts: error:`` line, as for
        argparse's own usage errors."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith("repro-uts: error: ")
        assert named in errors[0]

    def test_a_bug_keeps_its_traceback(self, monkeypatch):
        """Only ``ConfigError`` is bad input; a ``ProtocolError`` out of
        a run is a defect and must not be dressed as a usage error."""
        from repro.errors import ProtocolError
        from repro.harness import cli

        def broken(*args, **kwargs):
            raise ProtocolError("work lost in protocol")

        monkeypatch.setattr(cli, "run_experiment", broken)
        with pytest.raises(ProtocolError, match="work lost"):
            main(["run", "--threads", "2", "--b0", "30", "--q", "0.4"])
