"""Pins for the lost wake-up in the parked streamlined barrier.

Found by PR 12's ledger while sizing its ``fuzz-slice`` workload:
``upc-distmem`` under ``idle_strategy='park'`` with a scenario overlay
deadlocked on rare simulation seeds (``DeadlockError: 8 process(es)
blocked forever with an empty event heap``).

Root cause: ``StreamlinedTermination.phase_park`` parked right after a
probe's ``yield Timeout(cost)`` without re-running
``barrier_service_hook``.  A thief's ``request[v].poke`` +
``gate.wake(v)`` that landed *during* that yield was a no-op wake (the
victim was not parked yet), and the victim then parked on a pending
request while the thief blocked on its response forever -- in the
seed-121 trace T7's ``wake(3)`` at 486.24 us finds ``parked=[]``, T3
parks at 512.84 us with ``request[3]`` set.  Fix: when the probe finds
nothing and the surplus vanished meanwhile, go back to the loop top,
where the service hook, the terminated check and the park share one
event ("check and park in one event").

Both cells are the unshrunk PR 12 reproducers; they assert their
post-fix form.
"""

import pytest

from repro.check import check_run

CELL = dict(variant="upc-distmem", threads=8, chunk_size=4, b0=64, q=0.48,
            tree_seed=1, idle_strategy="park")


@pytest.mark.parametrize("extra", [
    dict(seed=121, scenario="numa-8x-locality"),
    dict(seed=24, scenario="hostile-mix", schedule_seed=1),
], ids=["numa-8x-locality-seed121", "hostile-mix-seed24-sched1"])
def test_parked_barrier_probe_does_not_sleep_on_pending_request(extra):
    out = check_run(**CELL, **extra)
    assert out.ok, f"{out.error_type}: {out.error}"
    assert out.total_nodes == 3009
