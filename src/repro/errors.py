"""Exception hierarchy for the repro package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class DeadlockError(SimulationError):
    """No runnable events remain but live processes are still blocked."""


class EventLimitExceeded(SimulationError):
    """The simulation exceeded its configured event budget.

    Raised to protect against runaway protocol bugs (e.g. livelock in a
    termination detector) rather than spinning forever.
    """


class ThreadKilled(ReproError):
    """Thrown into a UPC thread's generator to fail-stop it.

    Injected by the fault layer's kill watchdog via
    :meth:`repro.sim.engine.Simulator.interrupt`; algorithm mains run
    under a guard that catches it and hands the corpse's work to the
    loss accountant.
    """


class ProtocolError(ReproError):
    """A load-balancing protocol violated one of its invariants."""


class InvariantViolation(ProtocolError):
    """An online invariant check (``repro.check``) failed mid-run.

    Subclasses :class:`ProtocolError` because a violation *is* a
    protocol bug; the separate type lets the schedule fuzzer tell its
    own checks apart from the protocols' built-in assertions.
    """


class ConfigError(ReproError):
    """Invalid experiment, machine, or tree configuration."""


class TraceFormatError(ReproError):
    """A trace log line does not match the event schema (the message
    names the file, the line and what is wrong with it)."""


class SweepWorkerError(ReproError):
    """A sweep worker process failed while executing one job.

    The message carries the failing cell's identity
    (``algorithm/threads/chunk_size/tree``) and the worker-side
    traceback, so a crash deep inside a forked process is still
    attributable to one grid cell.
    """
