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
from repro.harness.figures import best
from repro.harness.sweep import Cell, CellTable

DOC = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


def test_registry_covers_the_paper_and_the_extension_rows():
    assert [e.id for e in EXPERIMENTS] == \
        ["E1", "E2", "E3", "E4", "E5", "E6", "X1", "X2", "X3", "X4",
         "E9", "E10", "E11", "E12", "E13", "E14", "E15"]
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
    for cell in by_id["E5"].cells:
        assert cell is best(by_id["E2"], cell.where["algorithm"])
    assert all(any(c is top for c in by_id["E3"].cells)
               for top in by_id["E6"].cells)


def _flat_fig4(rate: float = 10e6) -> CellTable:
    """A Figure-4 table whose distmem series is the same at every k."""
    setup = setup_for("fig4", "quick")
    return CellTable("quick", [
        Cell({"algorithm": alg, "threads": setup.thread_counts[0],
              "chunk_size": k}, 1, SimpleNamespace(nodes_per_sec=rate))
        for alg in setup.algorithms for k in setup.chunk_sizes], render=str)


def test_falloff_claim_fails_on_a_flat_series():
    """The old check compared distmem at the largest k with the best of
    the same series, so it held for any series; the claim is strict."""
    fig = _flat_fig4()
    big_k = max(setup_for("fig4", "quick").chunk_sizes)
    old_check = (fig.cell(algorithm="upc-distmem",
                          chunk_size=big_k).result.nodes_per_sec
                 <= best(fig, "upc-distmem").result.nodes_per_sec)
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


def test_a_claim_that_measures_nothing_fails():
    """Each predicate reads an empty selection as a claim that fails and
    names what it found empty, not as one that holds."""
    empty = CellTable("quick", [], render=str)
    assert experiments._bound("peaks", lambda t: [], above=1)(empty) == \
        (False, "peaks: an empty series")
    assert experiments._every("balance", lambda c: True)(empty) == \
        (False, "0/0 cells balance: no cell to check")
    assert experiments._at_least(10, "fuzzed cells", lambda t: {})(empty) \
        == (False, "no fuzzed cells counted (needs ≥ 10 each)")
    # E14's duplication claim over a grid whose every stale cell raised
    stale = CellTable("quick", [
        Cell({"preset": "kittyhawk", "variant": "ws-fencefree",
              "plan": "stale=0.1"}, 10, error_type="DeadlockError",
              error="stuck")], render=str)
    [claim] = [c for c in select(["E14"])[0].claims
               if c.sentence.startswith("stale reads")]
    assert claim.predicate(stale) == (
        False, "ws-fencefree dup_work per stale plan: an empty series")


def test_e15_quick_is_the_fuzz_sweep_cell_for_cell():
    """E15's quick grid is the schedule sweep CI ran (50 random
    schedules, 40 deferral points, the kill and stall plans where
    admitted), per variant and per mode, plus the 432-cell conservation
    grid; building it runs only the eight canonical cells."""
    from collections import Counter

    from repro.harness.checked import e15_cells

    cells, skipped = e15_cells("quick")
    fuzzed = [where for where, _ in cells if where["mode"] != "conservation"]
    assert Counter(where["variant"] for where in fuzzed) == {
        "mpi-ws": 274, "tree-split": 289, "upc-distmem": 295,
        "upc-distmem-hier": 277, "upc-sharedmem": 277, "upc-term": 292,
        "upc-term-rapdif": 274, "ws-fencefree": 298, "service-ws": 16}
    assert Counter(where["mode"] for where, _ in cells) == {
        "canonical": 8, "random": 1200, "delay": 1002, "service": 16,
        "scenario": 33, "scenario-park": 33, "conservation": 432}
    assert len(skipped) == 5 and all(
        line.startswith(("ws-fencefree ", "tree-split ")) for line in skipped)
    # every cell is check_run's (or check_service_run's) keywords
    assert ({"variant": "mpi-ws", "fault_spec": "kill=3@103us",
             "fault_seed": 0, "schedule_seed": 49}
            in [cell for _, cell in cells])


def test_each_e15_claim_names_the_cell_it_fails_on():
    def run(nodes=10, dup=0):
        return SimpleNamespace(total_nodes=nodes + dup, lost_work=0,
                               dup_work=dup, sim_time=1e-3, engine_events=5,
                               fault_counters=None)

    def cell(variant, result=None, mode="random", replayed=True, **error):
        return Cell({"mode": mode, "variant": variant,
                     "cell": {"variant": variant, "schedule_seed": 3}}, 10,
                    result, replayed=replayed if result else None, **error)

    table = CellTable("quick", [
        cell("upc-sharedmem", run(nodes=11)),
        cell("upc-term-rapdif", error_type="EventLimitExceeded",
             error="spun"),
        cell("mpi-ws", error_type="InvariantViolation", error="I3"),
        cell("upc-distmem-hier", run(), replayed=False),
        cell("upc-term", run(dup=2)),
        cell("ws-fencefree", run(dup=1)),
        cell("upc-distmem", run(), mode="conservation"),
    ], render=str)
    verdicts = [claim.predicate(table)
                for claim in select(["E15"])[0].claims]
    assert [ok for ok, _ in verdicts] == [False] * 7
    balance, terminate, monitor, replay, cover, window, strict = (
        detail for _, detail in verdicts)

    def first(variant):
        # the cell's keywords, verbatim: what repro.check.shrink takes
        return (f"; first: mode=random variant={variant} cell={{'variant': "
                f"'{variant}', 'schedule_seed': 3}}: ")

    assert first("upc-sharedmem") in balance
    assert first("upc-term-rapdif") + "EventLimitExceeded: spun" in terminate
    assert first("mpi-ws") + "InvariantViolation: I3" in monitor
    assert first("upc-distmem-hier") in replay
    assert cover.endswith("fuzzed cells (needs ≥ 100 each); short: mpi-ws")
    assert "upc-distmem 0, " in cover
    assert window == ("ws-fencefree 1 cells with ledgered duplicates "
                      "(needs ≥ 10 each); short: ws-fencefree")
    assert first("upc-term") in strict


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
