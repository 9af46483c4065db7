"""Every checked registry cell reruns from its ``--json`` row.

E9-E15's cells are check-API keyword dicts that
:func:`repro.check.runner.bind` alone turns into runs, and each row
carries its dict as ``cell``: ``check_run(**row["cell"])``
(``check_service_run`` for a cell that names no variant) reproduces
the row's counts, whatever monitor the grid ran it under.
"""

import json

import pytest

from repro.check import check_run, check_service_run
from repro.harness.experiments import run_experiments

CHECKED = ("E9", "E10", "E11", "E12", "E13", "E14", "E15")
COUNTS = ("engine_events", "total_nodes", "sim_time")


@pytest.fixture(scope="module")
def rows():
    """Every E9-E15 row at ``test`` scale, as its ``--json`` file has it."""
    return [(outcome.experiment.id, row)
            for outcome in run_experiments(CHECKED, "test")
            for row in json.loads(json.dumps(outcome.result.to_dict()))["runs"]]


def test_every_checked_row_reruns_through_the_check_api(rows):
    assert len(rows) == 108
    assert {entry for entry, _ in rows} == set(CHECKED)
    moved = []
    for entry, row in rows:
        cell = row["cell"]
        out = (check_run if "variant" in cell else check_service_run)(**cell)
        if not out.ok or tuple(getattr(out, key) for key in COUNTS) != \
                tuple(row[key] for key in COUNTS):
            moved.append((entry, cell, out.label()))
    assert moved == []
