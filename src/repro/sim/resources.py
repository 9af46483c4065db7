"""Synchronization resources for the simulation kernel.

Two resources cover everything the PGAS layer needs:

* :class:`FifoLock` -- a fair mutual-exclusion lock.  UPC global locks
  and the per-home-node "NIC occupancy" serializer are both FifoLocks.
* :class:`Gate` -- a resettable broadcast flag processes can wait on;
  the building block for cancelable barriers and termination flags.
"""

from __future__ import annotations

from typing import Any, List

from repro.errors import SimulationError
from repro.sim.engine import SimEvent, Simulator

__all__ = ["FifoLock", "Gate"]


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

    @property
    def queue_length(self) -> int:
        return len(self._queue)

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


class Gate:
    """A resettable broadcast flag.

    ``wait()`` returns an event that fires when the gate opens.  Unlike
    :class:`SimEvent`, a Gate can be reset and re-opened many times --
    each ``open()`` releases the waiters registered since the previous
    opening.  This models threads spinning on a shared flag without
    simulating individual spin iterations; the ``stagger`` parameter of
    :meth:`open` charges the serialization cost of N spinners being
    woken through one home node.
    """

    __slots__ = ("sim", "name", "is_open", "_event", "open_count")

    def __init__(self, sim: Simulator, name: str = "gate") -> None:
        self.sim = sim
        self.name = name
        self.is_open = False
        self._event: SimEvent = sim.event(name=f"{name}.cycle0")
        self.open_count = 0

    @property
    def waiter_count(self) -> int:
        return self._event.waiter_count

    def wait(self) -> SimEvent:
        """Awaitable that fires at the next opening (now, if open)."""
        if self.is_open:
            ev = self.sim.event(name=f"{self.name}.passthrough")
            ev.succeed()
            return ev
        return self._event

    def open(self, value: Any = None, delay: float = 0.0,
             stagger: float = 0.0) -> int:
        """Open the gate, waking current waiters.  Returns waiter count."""
        woken = self._event.waiter_count
        self.is_open = True
        self._event.succeed(value, delay=delay, stagger=stagger)
        self.open_count += 1
        self._event = self.sim.event(name=f"{self.name}.cycle{self.open_count}")
        return woken

    def reset(self) -> None:
        """Close the gate again; subsequent waiters block."""
        self.is_open = False
