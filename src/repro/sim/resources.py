"""Synchronization resources for the simulation kernel.

:class:`FifoLock` -- a fair mutual-exclusion lock -- covers everything
the PGAS layer needs: UPC global locks and the per-home-node "NIC
occupancy" serializer are both FifoLocks.
"""

from __future__ import annotations

from typing import List

from repro.errors import SimulationError
from repro.sim.engine import SimEvent, Simulator

__all__ = ["FifoLock"]


class FifoLock:
    """A fair (FIFO) lock.

    Usage inside a process body::

        yield lock.acquire()
        ... critical section ...
        lock.release()

    ``acquire`` returns a :class:`SimEvent` that fires when the caller
    holds the lock.  Hold-time accounting (``busy_time``) lets the
    metrics layer report lock contention.
    """

    __slots__ = ("sim", "name", "locked", "_queue", "acquisitions",
                 "contended_acquisitions", "busy_time", "_acquired_at",
                 "_ev_name")

    def __init__(self, sim: Simulator, name: str = "lock") -> None:
        self.sim = sim
        self.name = name
        self.locked = False
        self._queue: List[SimEvent] = []
        self.acquisitions = 0
        self.contended_acquisitions = 0
        self.busy_time = 0.0
        self._acquired_at = 0.0
        # Acquire-event name built once, not per acquisition (hot path).
        self._ev_name = f"{name}.acquire"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "locked" if self.locked else "free"
        return f"<FifoLock {self.name} {state} q={len(self._queue)}>"

    def acquire(self) -> SimEvent:
        ev = SimEvent(self.sim, self._ev_name)
        if not self.locked:
            self.locked = True
            self.acquisitions += 1
            self._acquired_at = self.sim.now
            # Uncontended grant: nobody can be waiting on a just-created
            # event, so marking it fired is exactly ``ev.succeed()``
            # without the call chain (the waiting process resumes via
            # the engine's fired-event fast path).
            ev.fired = True
        else:
            self.contended_acquisitions += 1
            self._queue.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Nonblocking acquire; True if the lock was taken."""
        if self.locked:
            return False
        self.locked = True
        self.acquisitions += 1
        self._acquired_at = self.sim.now
        return True

    def release(self) -> None:
        if not self.locked:
            raise SimulationError(f"release of unlocked {self.name!r}")
        self.busy_time += self.sim.now - self._acquired_at
        if self._queue:
            # Hand off directly: the lock stays held by the next waiter.
            self.acquisitions += 1
            self._acquired_at = self.sim.now
            ev = self._queue.pop(0)
            ev.succeed()
        else:
            self.locked = False

