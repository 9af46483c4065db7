"""Every record a run emits is one the schema declares, and the
schema's documented table is the schema."""

import re
from pathlib import Path

import pytest

from repro.faults.plan import parse_fault_spec
from repro.obs import EVENT_SCHEMA, FIELD_TYPES, TraceSink
from repro.service import ArrivalProcess, ServiceConfig, run_service
from repro.ws.config import WsConfig

from tests.obs.conftest import TRACED_MATRIX, traced_cell

DOC = Path(__file__).resolve().parents[2] / "docs" / "observability.md"


def assert_schema(records):
    assert records
    for ev in records:
        assert ev.kind in EVENT_SCHEMA, ev
        names = EVENT_SCHEMA[ev.kind][0]
        assert type(ev.fields) is tuple and len(ev.fields) <= len(names), ev
        for name, value in zip(names, ev.fields):
            assert type(value) is FIELD_TYPES[name], (ev, name)


@pytest.mark.parametrize("variant, idle, spec", TRACED_MATRIX)
def test_every_record_matches_the_schema(variant, idle, spec):
    assert_schema(traced_cell(variant, idle, spec)[1].records)


def test_service_storm_records_match_the_schema():
    """A shedding, retrying service stream through a kill storm."""
    sink = TraceSink()
    run_service(
        ServiceConfig(arrivals=ArrivalProcess(rate=8e5), n_tasks=60,
                      queue_capacity=16, policy="shed-oldest",
                      deadline=20e-6, max_retries=2, seed=3),
        threads=8, seed=1, tracer=sink,
        config=WsConfig(chunk_size=2, idle_strategy="park"),
        faults=parse_fault_spec("storm(kill:3@t=30us..100us)", seed=0))
    assert_schema(sink.records)
    kinds = set(sink.counts_by_kind())
    assert {"fault.kill", "task.lost", "task.shed", "task.retry",
            "task.done", "service.close"} <= kinds


def test_every_field_name_has_one_type():
    declared = {name for names, _ in EVENT_SCHEMA.values() for name in names}
    assert declared == set(FIELD_TYPES)
    assert set(FIELD_TYPES.values()) == {int, float, str}


def test_documented_table_is_the_schema():
    """docs/observability.md's event table: one row per kind, its
    fields column the declared names in order."""
    section = DOC.read_text().split("## Event schema", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        match = re.match(r"\| `([\w.]+)` \| ([^|]*) \|", line)
        if match:
            kind, fields = match.groups()
            assert kind not in rows, f"{kind} documented twice"
            rows[kind] = tuple(re.findall(r"`(\w+)`", fields))
    assert rows == {kind: names for kind, (names, _) in EVENT_SCHEMA.items()}
