"""JSONL event log: lossless round trip, byte stability, greppability,
and malformed logs rejected by name."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import TraceFormatError
from repro.obs import dump_jsonl, load_jsonl, to_jsonl_lines

TRACE_REPORT = Path(__file__).resolve().parents[2] / "tools" / "trace_report.py"


def test_round_trip(tmp_path, traced_small_run):
    _, sink = traced_small_run
    path = str(tmp_path / "run.jsonl")
    assert dump_jsonl(path, sink.events(), sink.meta) == path
    meta, events = load_jsonl(path)
    assert meta == sink.meta
    assert events == sink.events()


def test_header_optional(tmp_path, traced_small_run):
    _, sink = traced_small_run
    path = str(tmp_path / "noheader.jsonl")
    dump_jsonl(path, sink.events())
    meta, events = load_jsonl(path)
    assert meta == {}
    assert events == sink.events()


def test_lines_are_byte_stable(traced_small_run):
    _, sink = traced_small_run
    a = to_jsonl_lines(sink.events(), sink.meta)
    b = to_jsonl_lines(sink.events(), sink.meta)
    assert a == b
    # Header first, then one object per event, chronological.
    assert a[0].startswith('{"meta"')
    assert len(a) == 1 + len(sink.events())


def test_events_greppable_by_kind(traced_small_run):
    """The format docs promise ``grep '"steal'`` works on the log."""
    _, sink = traced_small_run
    lines = to_jsonl_lines(sink.events(), sink.meta)
    steal_lines = [ln for ln in lines if '"kind": "steal"' in ln]
    assert len(steal_lines) == sink.counts_by_kind()["steal"]


#: A log line each, and what the error names.  The first three
#: crashed deep inside the loader or an analysis before they were
#: checked (KeyError, JSONDecodeError, a TypeError in steal_matrix).
BAD_LINES = {
    "no-kind": ('{"t": 0.0, "rank": 0, "args": {}}', "no 'kind'"),
    "not-json": ("not json", "not JSON"),
    "mistyped": ('{"kind": "steal", "args": {"from": "x"}}',
                 "steal field 'from' is str 'x', not int"),
    "unknown-kind": ('{"t": 0.0, "rank": 0, "kind": "steal.maybe"}',
                     "unknown event kind 'steal.maybe'"),
    "undeclared": ('{"t": 0.0, "rank": 0, "kind": "steal", '
                   '"args": {"victim": 1}}',
                   "steal declares no field 'victim'"),
    "non-scalar": ('{"t": 0.0, "rank": 0, "kind": "visit", '
                   '"args": {"n": [1, 2]}}', "visit field 'n' is list"),
    "gap": ('{"t": 0.0, "rank": 0, "kind": "steal", "args": {"chunks": 1}}',
            "not a prefix of its fields (from, chunks, nodes, dup)"),
    "no-time": ('{"rank": 0, "kind": "idle.park"}', "t is NoneType"),
}


def _log(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"meta": {"threads": 2}}\n'
                    '{"t": 0.0, "rank": 1, "kind": "idle.park", "args": {}}\n'
                    + line + "\n")
    return str(path)


@pytest.mark.parametrize("case", sorted(BAD_LINES))
def test_malformed_line_is_named(tmp_path, case):
    line, why = BAD_LINES[case]
    path = _log(tmp_path, line)
    with pytest.raises(TraceFormatError) as info:
        load_jsonl(path)
    assert str(info.value).startswith(f"{path}:3: ")
    assert why in str(info.value)


@pytest.mark.parametrize("case", ["no-kind", "not-json", "mistyped"])
def test_trace_report_rejects_malformed_log(tmp_path, case):
    done = subprocess.run(
        [sys.executable, str(TRACE_REPORT), _log(tmp_path, BAD_LINES[case][0])],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert done.stderr.count("error:") == 1, done.stderr
    assert "trace_report.py: error: " in done.stderr
    assert "Traceback" not in done.stderr
