"""Pins for a termination declared by a death and never recorded.

Found by running E9's 2,037 ``quick`` cells as ``check_run`` cells (the
grid runs them unmonitored): 12 ``upc-sharedmem`` late kills conserved
their nodes but failed ``final_check``.  In each, the fail-stop went
through ``CancelableBarrier.on_thread_death``: the death completed the
barrier (every survivor counted in and waiting), or killed the
declarer inside its unlock, after it had set ``terminated`` and before
it recorded the declaration.  That path set ``terminated`` and woke the
waiters without emitting ``cbarrier.terminate``, so the monitor never
ran I4 at the declaration and the run ended with no termination seen.
Fix: the death path records the declaration, once, as the corpse's.

Generating cell (one of the 12; the others are the same variant on
tree seeds 1 and 2 at 4 and 6 threads, kills at 0.9-0.97):
``tree_seed=2``, 6 threads, rank 4 killed at 0.9 of the cell's own
fault-free ``sim_time``, poll and park.  Failure before fix::

    InvariantViolation: [t=0.000500 at 'final' emit #1066] run
    completed but no termination was ever declared (kinds seen:
    ['cbarrier.cancel', 'chunk.get', 'fault.kill', ...])
"""

import pytest

from repro.check import check_run


@pytest.mark.parametrize("idle", ["poll", "park"])
def test_a_death_that_declares_termination_records_it(idle):
    out = check_run("upc-sharedmem", tree_seed=2, threads=6,
                    fault_spec="kill=4@0.000390144485", idle_strategy=idle,
                    max_events=300_000)
    assert out.ok, f"{out.error_type}: {out.error}"
    assert out.monitor["terminations_seen"] == 1
