"""E15, the schedule-space fuzz: its grids, its cells and its command.

Each E15 cell is a :func:`repro.check.check_run` (or
:func:`repro.check.check_service_run`) keyword set, so a failing cell's
detail can go to :func:`repro.check.shrink` verbatim; these tests hold
the grid to that and to the sweep it replaced.
"""

from collections import Counter
from pathlib import Path

import pytest

from repro.check import check_run, check_service_run
from repro.harness.checked import (
    E15_GRID,
    FUZZ_STALE_VARIANTS,
    _refusal,
    e15_cells,
)
from repro.harness.cli import main
from repro.harness.experiments import run_experiments
from repro.scenarios import SCENARIOS
from repro.ws.algorithms import get_algorithm
from repro.ws.config import WsConfig


@pytest.fixture(scope="module")
def e15_test():
    """E15 at ``test`` scale, once, with its progress lines."""
    lines = []
    [outcome] = run_experiments(["E15"], "test", progress=lines.append)
    return outcome, lines


def test_e15_at_test_scale_holds_every_claim(e15_test):
    outcome, _ = e15_test
    assert outcome.failures() == []
    # the anti-vacuity floors are declared at quick and full only, but
    # the relaxed variant already duplicates under its stale plans here
    assert sum(c.duplicated for c in outcome.result.cells
               if c.where["variant"] == "ws-fencefree") > 0
    cells, _ = e15_cells("test")
    assert len(outcome.result.cells) == len(cells)
    assert all(c.ok and c.replayed for c in outcome.result.cells)


def test_progress_names_only_the_canonical_cells(e15_test):
    _, lines = e15_test
    assert len(lines) == 9
    assert all(line.startswith("mode=canonical variant=")
               for line in lines[:-1])
    assert lines[-1].startswith("E15[test]: 64 cells in ")


def test_the_table_names_every_skipped_pairing(e15_test):
    outcome, _ = e15_test
    text = outcome.markdown()
    assert "Skipped pairings:" in text
    for variant in FUZZ_STALE_VARIANTS:
        assert f"* {variant} × `kill=3@103us` (admits only stale)" in text
    assert "Conservation grid" in text and "8/8 cells clean" in text


def _first(mode: str, faulted: bool = False) -> dict:
    cells, _ = e15_cells("test")
    return next(cell for where, cell in cells if where["mode"] == mode
                and ("fault_spec" in cell) == faulted)


@pytest.mark.parametrize("mode, faulted", [
    ("random", False), ("random", True), ("delay", False),
    ("service", False), ("scenario-park", False), ("conservation", False),
])
def test_a_cell_reruns_from_its_keywords(e15_test, mode, faulted):
    """The keywords a cell carries reproduce its run through the public
    checker: what a failing cell's detail hands to ``shrink``."""
    outcome, _ = e15_test
    cell = _first(mode, faulted)
    [ran] = [c for c in outcome.result.cells if c.where["cell"] == cell]
    again = (check_run if "variant" in cell else check_service_run)(**cell)
    assert again.ok and ran.ok
    assert again.engine_events == ran.result.engine_events
    assert again.sim_time == ran.result.sim_time
    assert again.monitor == ran.measured


def test_validate_is_no_repro_uts_subcommand(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["validate"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'validate'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["experiment", "--scale", "nope"], "invalid choice: 'nope'"),
    (["experiment", "E99", "--scale", "test"], "unknown experiment 'E99'"),
])
def test_bad_experiment_input_is_a_named_error(argv, named, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert named in err and out == ""


def test_full_is_the_deep_budget_over_the_whole_catalog():
    full = E15_GRID["full"]
    assert (full["seeds"], full["defers"], full["fault_seeds"]) == \
        (500, 400, (0, 1))
    assert set(full["scenarios"]) == set(SCENARIOS)
    assert full["conservation"] == E15_GRID["quick"]["conservation"]


def test_deferral_points_spread_past_the_canonical_schedule():
    """At least forty evenly spaced points over 1.2x the canonical
    event count: scheduled sequence numbers outrun dispatched events."""
    cells, _ = e15_cells("quick")
    events = check_run("upc-sharedmem").engine_events
    points = [cell["defer"][0] for where, cell in cells
              if where["mode"] == "delay" and "fault_spec" not in cell
              and where["variant"] == "upc-sharedmem"]
    assert points[0] == 1 and 40 <= len(points) <= 42
    assert len({b - a for a, b in zip(points, points[1:])}) == 1
    assert events < points[-1] <= 1.2 * events + 1


def test_scenario_support_reads_every_policy_axis():
    def offers(variant, **policies):
        return get_algorithm(variant).refusal(WsConfig(**{
            f"{axis}_policy": key for axis, key in policies.items()})) is None

    def runs(variant, scenario):
        return _refusal({"variant": variant, "scenario": scenario}) is None

    assert offers("upc-distmem", victim="hierarchical")
    assert not offers("tree-split", victim="hierarchical")
    assert not runs("tree-split", "numa-8x-locality")
    assert runs("tree-split", "numa-8x-uniform")
    assert not offers("ws-fencefree", steal="half")
    assert offers("upc-term", steal="half")
    assert not offers("upc-distmem", termination="token")
    assert offers("mpi-ws", termination="token")
    assert Counter(offers(v, steal="one", termination="streamlined")
                   for v in ("ws-fencefree", "upc-distmem", "mpi-ws")) == \
        {True: 2, False: 1}


def test_the_committed_skip_list_is_the_gates():
    """EXPERIMENTS.md's full-scale E15 block names exactly the pairings
    the gate refuses, in the words it renders them with -- without the
    40,374-cell rerun that regenerates the block."""
    doc = (Path(__file__).resolve().parents[2] / "EXPERIMENTS.md").read_text()
    block = doc[doc.index("<!-- experiment:E15 -->"):
                doc.index("<!-- /experiment:E15 -->")]
    assert block.splitlines()[1] == "Measured at `full` scale:"
    bullets = block.split("Skipped pairings:\n\n")[1].split("\n\n")[0]
    assert [line.removeprefix("* ") for line in bullets.splitlines()] \
        == e15_cells("full")[1]
