"""Streamlined termination detection (Sect. 3.3.1).

Threads enter the barrier only when a full probe cycle shows *every*
other thread out of work (``work_avail == -1``), so "the expensive
barrier operations are performed, almost always, only once".  Threads
inside the barrier keep probing -- but only one victim at a time, with
backoff, "to avoid overwhelming the remaining working threads".  The
last thread to enter launches a tree-based termination announcement.

This class provides the counted barrier and the announcement; the
in-barrier probe/steal loop lives in the algorithms (it needs their
steal machinery).  The protocol rule that keeps ``count == THREADS``
a sound termination proof: a barrier waiter *leaves* (decrements)
before attempting a steal and re-enters on failure, so no thread is
simultaneously counted as idle and holding in-flight work.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.pgas.collectives import broadcast_time
from repro.pgas.machine import Machine, UpcContext
from repro.sim.engine import Timeout

__all__ = ["StreamlinedBarrier"]


class StreamlinedBarrier:
    """Counted barrier + tree announcement, homed at rank 0."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.net = machine.net
        self.n_threads = machine.n_threads
        self.lock = machine.global_lock("sbarrier.lock", home=0)
        self.count = 0
        self.terminated = False
        self.announce_time: float = 0.0
        #: Fault-tolerance bookkeeping: threads still alive, which ranks
        #: are currently counted in, and the rank whose announcement is
        #: in flight (None: nobody is announcing).  Fault-free,
        #: ``alive == n_threads`` always, so ``count == alive`` is the
        #: original full-barrier test.
        self.alive = machine.n_threads
        self._counted = [False] * machine.n_threads
        self.announcer: Optional[int] = None

    def enter(self, ctx: UpcContext) -> Generator:
        """Increment the barrier count; returns True if this thread is
        the last one in (and should announce termination)."""
        yield from ctx.lock(self.lock)
        self.count += 1
        self._counted[ctx.rank] = True
        last = self.count == self.alive and self.announcer is None
        yield from ctx.unlock(self.lock)
        tr = ctx.machine.tracer
        if tr.enabled:
            tr.emit(ctx.now, ctx.rank, "sbarrier.enter", (self.count,))
        return last

    def leave(self, ctx: UpcContext) -> Generator:
        """Decrement the count (thread saw a steal candidate)."""
        yield from ctx.lock(self.lock)
        self.count -= 1
        self._counted[ctx.rank] = False
        yield from ctx.unlock(self.lock)
        tr = ctx.machine.tracer
        if tr.enabled:
            tr.emit(ctx.now, ctx.rank, "sbarrier.leave", (self.count,))

    def announce(self, ctx: UpcContext) -> Generator:
        """Tree-based termination announcement by the last thread."""
        self.announcer = ctx.rank
        cost = broadcast_time(self.net, self.n_threads)
        if cost > 0:
            yield Timeout(cost)
        self.terminated = True
        self.announce_time = ctx.now
        ctx.trace("sbarrier.announce")

    def on_thread_death(self, rank: int) -> None:
        """Count a fail-stopped rank out of the barrier.  The remaining
        waiters' loops observe ``count == alive`` and announce -- also
        when the corpse is the announcer, killed inside its broadcast
        before it could publish ``terminated``: its claim lapses with
        it, or no survivor could ever take over."""
        self.alive -= 1
        if self._counted[rank]:
            self._counted[rank] = False
            self.count -= 1
        if rank == self.announcer and not self.terminated:
            self.announcer = None
