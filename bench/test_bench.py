"""Checks of the benchmark's own arithmetic and data files.

Outside tier-1's ``testpaths``; run with ``python -m pytest bench -q``.
"""

import dataclasses
import json
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for sub in ("src", "tools"):
    sys.path.insert(0, os.path.join(ROOT, sub))

import compare  # noqa: E402
import ledger  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_span_self_time_is_duration_minus_direct_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 10.0, 20.0, 21.0])
    rec = spans.Recorder(clock=lambda: next(ticks))
    with rec.span("cell", cell="a"):          # 0 .. 10
        with rec.span("build"):               # 1 .. 6
            with rec.span("alloc"):           # 2 .. 3
                pass
            assert next(ticks) == 5.0         # time passing inside build
        # back in the cell
    with rec.span("cell", cell="b"):          # 20 .. 21
        pass
    own = spans.self_times(rec.spans)
    assert own == [10.0 - 5.0, 5.0 - 1.0, 1.0, 1.0]
    assert [s["parent"] for s in rec.spans] == [None, 0, 1, None]
    assert [s["cell"] for s in rec.spans] == ["a", "a", "a", "b"]
    by_name = spans.self_time_by_name(rec.spans)
    assert by_name == {"cell": 6.0, "build": 4.0, "alloc": 1.0}
    # Self times add up to the top-level spans' durations.
    assert sum(own) == (10.0 - 0.0) + (21.0 - 20.0)


@pytest.mark.parametrize("n, level", [
    (9, None), (19, None), (20, 50), (39, 50), (40, 75), (99, 75),
    (100, 90), (199, 90), (200, 95), (999, 95), (1000, 99),
])
def test_tail_is_highest_level_with_ten_samples_beyond(n, level):
    assert ledger.tail_level(n) == level
    if level is not None:
        assert n * (100 - level) / 100 >= ledger.TAIL_MIN_BEYOND


def test_tail_of_few_samples_is_their_maximum():
    assert ledger.tail([3.0, 1.0, 2.0]) == ("max", 3.0)
    label, value = ledger.tail([float(i) for i in range(1, 101)])
    assert (label, value) == ("p90", 90.0)


def test_reference_seconds_divide_by_the_median_reading_nearby():
    import hostspeed

    yardstick = hostspeed.Yardstick.__new__(hostspeed.Yardstick)
    yardstick.readings = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 9.0, 2.0]
    # Reading 1 sees readings 0..5: three at 1.0, three at 2.0.
    assert yardstick.slowdown(1) == 1.5
    # Reading 5 sees readings 2..9; one wild reading does not move it.
    assert yardstick.slowdown(5) == 2.0
    assert hostspeed.to_reference([3.0, 3.0], yardstick, [1, 5]) == \
        [2.0, 1.5]


def test_checksum_matches_bench_engine_on_a_two_cell_sweep():
    from bench_engine import results_checksum
    from repro.harness.parallel import execute_jobs

    cells = [workloads.small_job("upc-distmem", 8),
             workloads.small_job("mpi-ws", 8)]
    outcomes = [workloads.run_cell(cell) for cell in cells]
    assert all(o.ok for o in outcomes)
    # As one sweep: execute_jobs orders its results by JobSpec.index.
    runs = execute_jobs([dataclasses.replace(cell.spec, index=i)
                         for i, cell in enumerate(cells)], 1)
    assert workloads.checksum([o.line for o in outcomes]) == \
        results_checksum(runs)


def test_pins_file_names_every_cell_of_every_workload():
    with open(os.path.join(ROOT, "bench", "pins.json")) as fh:
        pins = json.load(fh)
    contract = ledger.load_contract()
    assert pins["seed"] == 0
    assert sorted(pins["workloads"]) == sorted(
        w["name"] for w in contract["workloads"])
    for name, entry in pins["workloads"].items():
        assert re.fullmatch(r"[0-9a-f]{40}", entry["pass"])
        ids = [c.id for c in workloads.WORKLOADS[name].cells(0)]
        assert len(set(ids)) == len(ids)
        assert sorted(entry["cells"]) == sorted(ids)
        assert all(re.fullmatch(r"[0-9a-f]{16}", p)
                   for p in entry["cells"].values())
    # Both backends execute the one pinned schedule.
    assert pins["workloads"]["fig4-pure"] == pins["workloads"]["fig4-fast"]
    committed = os.path.join(ROOT, "BENCH_engine.json")
    if os.path.exists(committed):
        with open(committed) as fh:
            assert pins["fig4_full_sweep"] == \
                json.load(fh)["seed_serial"]["results_checksum"]


def _entry(value, q1=None, q3=None):
    return {"value": value, "q1": q1 or value, "q3": q3 or value}


@pytest.mark.parametrize("a, b, better, word", [
    (_entry(10.0), _entry(10.3), "lower", "within bound"),
    (_entry(10.0), _entry(12.0), "lower", "worse"),
    (_entry(10.0), _entry(12.0), "higher", "better"),
    (_entry(10.0, 8.0, 12.0), _entry(10.2), "lower", "unresolved"),
    (_entry(10.0, 8.5, 11.5), _entry(12.0), "lower", "unresolved"),
])
def test_compare_verdicts(a, b, better, word):
    assert compare.verdict(a, b, better, bound=0.05)[2] == word
