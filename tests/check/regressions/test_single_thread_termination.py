"""Pin for mpi-ws never declaring termination on a one-thread machine.

Found while sizing ISSUE 14: ``check_run(variant="mpi-ws", threads=1,
...)`` failed with ``InvariantViolation: run completed but no
termination was ever declared`` under both idle strategies, while the
other seven variants passed.

Root cause: the mpi-ws idle loops of the time (polling, parked and
fault-tolerant; one loop now) returned True at
``n_threads == 1`` before reaching the ``mpi.term`` record rank 0 emits
on every larger machine.  Fix: ``idle_phase`` roots the (childless)
TERM broadcast itself before its loop starts, under every idle strategy
and fault plan, which runs the quiescence oracle and emits the record.
"""

import pytest

from repro.check import check_run
from repro.ws.algorithms import ALGORITHMS


@pytest.mark.parametrize("idle", ["poll", "park"])
@pytest.mark.parametrize("variant", list(ALGORITHMS))
def test_one_thread_run_declares_termination(variant, idle):
    out = check_run(variant=variant, threads=1, chunk_size=4, b0=64,
                    q=0.48, tree_seed=1, idle_strategy=idle)
    assert out.ok, f"{out.error_type}: {out.error}"
    assert out.total_nodes == 3009
    assert out.monitor["terminations_seen"] == 1
