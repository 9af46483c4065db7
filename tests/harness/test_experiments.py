"""Tests for the experiment registry and ``repro-uts experiment``."""

import re
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.errors import ConfigError
from repro.harness import experiments
from repro.harness.cli import main
from repro.harness.config import SCALES, setup_for
from repro.harness.experiments import (
    EXPERIMENTS,
    Claim,
    Experiment,
    marker_ids,
    run_experiments,
    select,
)
from repro.harness.figures import FigureResult
from repro.harness.sweep import SweepResult

DOC = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


def test_registry_covers_the_paper_and_the_extension_rows():
    assert [e.id for e in EXPERIMENTS] == \
        ["E1", "E2", "E3", "E4", "E5", "E6", "X1", "X2", "X3", "X4",
         "E9", "E10", "E11", "E12", "E13", "E14"]
    for entry in EXPERIMENTS:
        assert entry.claims, entry.id
        for claim in entry.claims:
            assert claim.sentence and claim.ref
            assert set(claim.holds_at) <= set(SCALES), claim.sentence
        if entry.reads:
            assert select([entry.reads])[0].reads is None


def test_unknown_id_is_a_named_error():
    with pytest.raises(ConfigError, match="unknown experiment 'E7'"):
        select(["E2", "E7"])


def test_readers_reuse_the_runs_they_read():
    """E5 and E6 read E2's and E3's runs: no second sweep."""
    by_id = {o.experiment.id: o.result
             for o in run_experiments(["E2", "E3", "E5", "E6"], "test")}
    for alg, run in by_id["E5"].best.items():
        assert run is by_id["E2"].sweep.best(alg)
    assert any(run is by_id["E6"].run for run in by_id["E3"].sweep.runs)


def _flat_fig4(rate: float = 10e6) -> FigureResult:
    """A Figure-4 result whose distmem series is the same at every k."""
    setup = setup_for("fig4", "quick")
    runs = [SimpleNamespace(algorithm=alg, chunk_size=k,
                            n_threads=setup.thread_counts[0],
                            nodes_per_sec=rate)
            for alg in setup.algorithms for k in setup.chunk_sizes]
    return FigureResult("fig4", "quick", "chunk_size",
                        SweepResult(setup=setup, expected_nodes=1, runs=runs))


def test_falloff_claim_fails_on_a_flat_series():
    """The old check compared distmem at the largest k with the best of
    the same series, so it held for any series; the claim is strict."""
    fig = _flat_fig4()
    sweep, big_k = fig.sweep, max(fig.sweep.setup.chunk_sizes)
    old_check = (sweep.get("upc-distmem", chunk_size=big_k).nodes_per_sec
                 <= sweep.best("upc-distmem").nodes_per_sec)
    assert old_check
    [claim] = [c for c in select(["E2"])[0].claims
               if c.sentence.startswith("performance falls off")]
    assert "quick" in claim.holds_at
    ok, detail = claim.predicate(fig)
    assert not ok
    assert detail == "distmem at the largest k / its peak 1.000 " \
                     "(needs < 0.800)"


def test_each_cell_claim_names_the_cell_it_fails_on():
    """Conservation, termination, the monitor and the replay each fail
    on their own cell, and only there."""
    from repro.harness.checked import Cell, CellTable

    run = SimpleNamespace(total_nodes=10, lost_work=0, dup_work=0,
                          sim_time=1e-3, engine_events=5, fault_counters=None)
    table = CellTable("test", [
        Cell({"n": 0}, 10, run, replayed=True),
        Cell({"n": 1}, 11, run, replayed=True),
        Cell({"n": 2}, 10, error_type="EventLimitExceeded", error="spun"),
        Cell({"n": 3}, 10, error_type="InvariantViolation", error="I2"),
        Cell({"n": 4}, 10, run, replayed=False),
    ], render=str)
    details = [claim.predicate(table)
               for claim in experiments._cell_claims("§0", "I1–I5")]
    assert details == [
        (False, "2/3 cells balance; first: n=1: nodes=10 lost=0 "
                "t=1.000ms events=5"),
        (False, "4/5 cells terminate; first: n=2: EventLimitExceeded: spun"),
        (False, "4/5 cells raise nothing; first: n=3: InvariantViolation: I2"),
        (False, "2/3 cells replay; first: n=4: nodes=10 lost=0 t=1.000ms "
                "events=5"),
    ]


def _failing_entry(scale):
    return Experiment(
        "Z1", "a synthetic entry", experiments.EXPERIMENTS[0].run, claims=(
            Claim("the sky is green", "§0", lambda _: (False, "it is blue"),
                  holds_at=(scale,)),
            Claim("water is wet", "§0", lambda _: (True, "it is"),
                  holds_at=(scale,)),
        ))


def test_a_failing_claim_exits_1_and_is_named(monkeypatch, capsys):
    monkeypatch.setitem(experiments._BY_ID, "Z1", _failing_entry("test"))
    assert main(["experiment", "Z1", "--scale", "test"]) == 1
    out, err = capsys.readouterr()
    assert "⚠️ the sky is green (§0): it is blue — **FAILS**" in out
    assert "✅ water is wet" in out
    assert ("repro-uts: claim failed at test: Z1 'the sky is green' "
            "(§0): it is blue") in err
    assert "water is wet" not in err


def test_an_undeclared_failure_is_a_deviation_not_an_exit(monkeypatch,
                                                          capsys):
    monkeypatch.setitem(experiments._BY_ID, "Z1", _failing_entry("full"))
    assert main(["experiment", "Z1", "--scale", "test"]) == 0
    out, err = capsys.readouterr()
    assert "⚠️ the sky is green (§0): it is blue — claimed at: full" in out
    assert "claim failed" not in err


_BLOCKS = re.compile(r"(<!-- experiment:(\w+) -->\n).*?(<!-- /experiment:\2 -->)",
                     re.S)


def _outside_blocks(text: str) -> str:
    return _BLOCKS.sub(r"\1\3", text)


def test_write_replaces_only_marker_blocks(tmp_path, capsys):
    doc = tmp_path / "EXPERIMENTS.md"
    shutil.copy(DOC, doc)
    before = doc.read_text()
    assert main(["experiment", "--scale", "test", "--write", str(doc),
                 "--json", str(tmp_path / "json"),
                 "--csv", str(tmp_path / "csv")]) == 0
    once = doc.read_text()
    assert _outside_blocks(once) == _outside_blocks(before)
    assert marker_ids(once) == marker_ids(before)
    for entry in EXPERIMENTS:
        block = once.split(f"<!-- experiment:{entry.id} -->\n")[1]
        assert block.startswith("Measured at `test` scale:")
        assert (tmp_path / "json" / f"test_{entry.id}.json").exists()
        assert (tmp_path / "csv" / f"test_{entry.id}.csv").exists()
    assert main(["experiment", "--scale", "test", "--write", str(doc)]) == 0
    assert doc.read_text() == once


def test_write_without_the_block_is_rejected_before_running(tmp_path,
                                                            monkeypatch):
    doc = tmp_path / "doc.md"
    doc.write_text("<!-- experiment:E1 -->\n<!-- /experiment:E1 -->\n")

    def no_run(*args, **kwargs):
        raise AssertionError("ran before checking the file")

    monkeypatch.setattr(experiments, "run_experiments", no_run)
    with pytest.raises(SystemExit) as exit_info:
        main(["experiment", "E1", "E2", "--scale", "test",
              "--write", str(doc)])
    assert exit_info.value.code == 2
