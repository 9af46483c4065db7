"""Cancelable-barrier termination detection (Sect. 3.1).

The shared-memory algorithm's termination scheme: a thread that finds
no stealable work enters a barrier and spins on cancellation /
termination flags.  Any thread *releasing* work resets (cancels) the
barrier -- a remote write that also wakes every waiter so they resume
searching.  The last thread to enter sets the termination flag.

The cost structure the paper criticizes is modelled explicitly:

* enter/leave mutate the barrier count under a global lock homed at
  rank 0 ("barrier operations are performed under lock, adding
  significant remote locking costs"),
* every release pays a remote write to the cancellation flag whether or
  not anyone is waiting ("it delays a thread that might otherwise be
  doing useful work"),
* waiters spinning on the flags are woken serially through the flag's
  home node (``home_occupancy`` stagger), modelling contention.

Correctness invariant: a cancelled waiter decrements the count *before*
resuming its search, so ``count == THREADS`` can only be observed when
every thread is simultaneously idle with empty stacks -- at which point
no work exists and termination is sound.
"""

from __future__ import annotations

from typing import Generator

from repro.pgas.machine import Machine, UpcContext
from repro.sim.engine import SimEvent, Timeout

__all__ = ["CancelableBarrier"]

CANCELLED = "cancelled"
TERMINATED = "terminated"


class CancelableBarrier:
    """Shared barrier state, homed at rank 0."""

    def __init__(self, machine: Machine, on_terminate=None) -> None:
        self.machine = machine
        self.net = machine.net
        self.n_threads = machine.n_threads
        self.lock = machine.global_lock("cbarrier.lock", home=0)
        self.count = 0
        self.terminated = False
        self.cancels = 0
        self._waiters: list[tuple[int, SimEvent]] = []
        #: Soundness oracle invoked by the terminating thread (the
        #: algorithms pass their quiescence check here).
        self.on_terminate = on_terminate
        #: Fault-tolerance bookkeeping (fault-free: ``alive`` stays
        #: ``n_threads`` and ``count == alive`` is the original test).
        self.alive = machine.n_threads
        self._counted = [False] * machine.n_threads
        #: The rank that set ``terminated`` and has not yet recorded
        #: ``cbarrier.terminate`` (it does so after its unlock).
        self._declarer = None

    # -- worker side ---------------------------------------------------------

    def reset(self, ctx: UpcContext) -> Generator:
        """Cancel the barrier after releasing work (worker-side cost)."""
        # One remote write to the cancellation flag at its home (rank 0).
        cost = self.net.shared_ref(ctx.rank, 0)
        if cost > 0:
            yield Timeout(cost)
        self.cancels += 1
        if self._waiters:
            stagger = self.net.home_occupancy
            for i, (_rank, ev) in enumerate(self._waiters):
                ev.succeed(CANCELLED, delay=i * stagger)
            self._waiters.clear()
        ctx.trace("cbarrier.cancel")

    # -- idle side -------------------------------------------------------------

    def enter_and_wait(self, ctx: UpcContext) -> Generator:
        """Enter the barrier; returns True on termination, False if
        cancelled (the caller should resume searching for work)."""
        yield from ctx.lock(self.lock)
        if self.terminated:
            # Termination was declared while this thread was en route.
            yield from ctx.unlock(self.lock)
            return True
        self.count += 1
        self._counted[ctx.rank] = True
        last = self.count == self.alive
        if last:
            if self.on_terminate is not None:
                self.on_terminate()
            self.terminated = True
            self._declarer = ctx.rank
            # Killed inside this unlock, the declarer never reaches the
            # wake and the record below: on_thread_death does both in
            # its place.
            yield from ctx.unlock(self.lock)
            self._declarer = None
            self._wake_terminated()
            ctx.trace("cbarrier.terminate")
            return True
        yield from ctx.unlock(self.lock)
        if self.terminated:
            # Only reachable under faults: a fail-stop during our unlock
            # completed the barrier and termination was declared while
            # we were still counted in.  Fault-free, no yield separates
            # the lock release from this point in a way that lets the
            # declaration interleave.
            return True
        # Registering after the unlock is race-free *in the simulation*:
        # no yield separates the unlock's completion from the append, so
        # no cancel/terminate can interleave.  A real implementation
        # must register while still holding the lock.
        ev = self.machine.sim.event(name=f"cbarrier.T{ctx.rank}")
        self._waiters.append((ctx.rank, ev))
        outcome = yield ev
        # Waking costs one remote read of the flag the thread spun on.
        wake_cost = self.net.shared_ref(ctx.rank, 0)
        if wake_cost > 0:
            yield Timeout(wake_cost)
        if outcome == TERMINATED:
            return True
        # Cancelled: leave the barrier (decrement under lock) BEFORE
        # searching, so count==THREADS remains a sound termination proof.
        yield from ctx.lock(self.lock)
        self.count -= 1
        self._counted[ctx.rank] = False
        became_terminated = self.terminated
        yield from ctx.unlock(self.lock)
        if became_terminated:
            # Termination was declared while we queued for the lock; the
            # system is empty, so searching again is pointless.
            return True
        return False

    def _wake_terminated(self) -> None:
        """Publish termination: wake every waiter, serially through
        the flag's home node."""
        for _rank, ev in self._waiters:
            ev.succeed(TERMINATED, delay=0.0,
                       stagger=self.net.home_occupancy)
        self._waiters.clear()

    # -- fault hooks ---------------------------------------------------------

    def on_thread_death(self, rank: int) -> None:
        """Count a fail-stopped rank out of the barrier.

        If its death completes the barrier (every surviving thread is
        counted in and waiting), declare termination here: no live
        thread will ever enter again, so nobody else can.  If the
        corpse had already declared it but died before waking anyone
        (``terminated`` is set inside the declarer's unlock, the wake
        comes after it), the waiters are woken here in its place; the
        soundness oracle ran when the corpse declared.  Either way the
        declaration is recorded here, as the corpse's: every path that
        sets ``terminated`` records ``cbarrier.terminate`` exactly once.
        """
        self.alive -= 1
        if self._counted[rank]:
            self._counted[rank] = False
            self.count -= 1
        self._waiters = [(r, ev) for r, ev in self._waiters if r != rank]
        unrecorded = self._declarer == rank
        if (self._waiters and not self.terminated
                and 0 < self.alive == self.count):
            if self.on_terminate is not None:
                self.on_terminate()
            self.terminated = unrecorded = True
        if self._waiters and self.terminated:
            self._wake_terminated()
        if unrecorded:
            self._declarer = None
            tr = self.machine.tracer
            if tr.enabled:
                tr.emit(self.machine.sim.now, rank, "cbarrier.terminate")
