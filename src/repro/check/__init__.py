"""Schedule-space exploration and online invariant checking.

The simulator executes exactly one legal interleaving per
configuration: simultaneous events run in FIFO ``_seq`` order.  That
determinism is what makes runs reproducible -- and also what lets
interleaving bugs hide.  This package explores the *other* legal
schedules:

* :mod:`repro.check.tiebreak` -- pluggable heap tie-break policies
  (seeded random permutations, bounded delays from canonical).
* :mod:`repro.check.invariants` -- an online
  :class:`~repro.check.invariants.InvariantMonitor` that rides the
  trace-hook sites and checks conservation, ownership, termination
  soundness, and lock pairing *during* the run.
* :mod:`repro.check.runner` -- :func:`~repro.check.runner.check_run`,
  one fuzz cell as a pure function.
* :mod:`repro.check.shrink` -- delta-debugging failing cells down to
  committed regression tests.

Driver: ``repro-uts experiment E15`` (the schedule-space fuzz, a
checked-cell grid of :mod:`repro.harness.checked`).  Catalog and
workflow: ``docs/correctness.md``.
"""

from repro.check.invariants import InvariantMonitor
from repro.check.runner import (VARIANTS, CheckOutcome, check_run,
                               check_service_run)
from repro.check.shrink import ShrinkResult, reproducer_source, shrink
from repro.check.tiebreak import DelayTieBreak, FifoTieBreak, RandomTieBreak

__all__ = [
    "CheckOutcome",
    "DelayTieBreak",
    "FifoTieBreak",
    "InvariantMonitor",
    "RandomTieBreak",
    "ShrinkResult",
    "VARIANTS",
    "check_run",
    "check_service_run",
    "reproducer_source",
    "shrink",
]
