"""Lock-based stack machinery and the three variants declared on it:
``upc-sharedmem``, ``upc-term`` and ``upc-term-rapdif``.

Sect. 3.1: every thread's shared stack region is guarded by a global
lock.  The owner locks to ``release``/``reacquire``; thieves lock to
reserve chunks.  The reserved chunk is transferred *outside* the
critical section with a one-sided get, per the paper.

The costs the paper attributes to this design emerge from the model:
the owner's lock is cheap for the owner (homed locally) but FIFO-fair,
so remote thieves holding it for a full remote round trip stall the
working thread -- "multiple remote threads attempting to steal work
from the working thread can keep the stack locked for a comparatively
long time".

The variants are *policy declarations* over that machinery: the main
loop and search skeleton live in
:class:`~repro.ws.algorithms.base.AlgorithmBase`, the barrier protocols
in :mod:`repro.ws.termination.strategies`, so each class below names a
(steal amount, termination) pair and nothing else.
"""

from __future__ import annotations

from typing import Generator

from repro.sim.engine import Timeout
from repro.ws.algorithms.base import AlgorithmBase, flatten
from repro.ws.policies import steal_half, steal_one

__all__ = ["LockBasedAlgorithm", "UpcSharedMem", "UpcTerm", "UpcTermRapdif"]


class LockBasedAlgorithm(AlgorithmBase):
    """Own-lock transactions and the locking steal for algorithms with
    lock-guarded stacks; the Working state itself is
    :meth:`AlgorithmBase.working_phase` with switch (c) set."""

    def setup(self) -> None:
        self.stack_locks = self.machine.lock_array("stack_lock")
        # Own-stack lock fast path: every release/reacquire pays the
        # same constant lock round trip, so precompute it as a reusable
        # Timeout (None when free).  The unlock reference costs nothing
        # -- the lock is homed at its own rank and
        # ``NetworkModel.shared_ref(r, r)`` is 0 -- so the inlined
        # transaction yields nothing for it.  Only valid fault-free: a
        # lock-stall fault must go through ctx.unlock's stall roll.
        costs = [self.net.lock_cost(r, lk.home)
                 for r, lk in enumerate(self.stack_locks)]
        self._own_lock = [(lk, Timeout(lc) if lc > 0 else None)
                          for lk, lc in zip(self.stack_locks, costs)]
        # The cancelable barrier resets on every release; other
        # termination policies (and subclasses without an override)
        # leave the hook off, so a release skips the generator round
        # trip entirely.
        self._after_release_hook = (
            self._termination.resets_on_release
            or type(self).after_release is not LockBasedAlgorithm.after_release)

    # -- compiled working-phase fusion (repro.fastpath) -----------------------

    def _fusable(self) -> bool:
        """Behind switch (c) the compiled phase knows at most the stock
        cancelable barrier's release-reset, so an ``after_release``
        override or a custom termination detector keeps the
        generator."""
        if (not super()._fusable() or type(self).after_release
                is not LockBasedAlgorithm.after_release):
            return False
        if self._after_release_hook:
            from repro.ws.termination.cancelable_barrier import (
                CancelableBarrier,
            )
            from repro.ws.termination.strategies import (
                CancelableBarrierTermination,
            )
            term = self._termination
            return (type(term) is CancelableBarrierTermination
                    and type(term.barrier) is CancelableBarrier)
        return True

    # -- the generic own-lock transactions ------------------------------------

    def release(self, ctx) -> Generator:
        """Move one chunk local -> shared, under the own-stack lock.

        The generic transaction: :meth:`working_phase` reaches it only
        on faulted runs (``ctx.lock``/``ctx.unlock`` roll stalls and
        keep the pending/holder bookkeeping fail-stop recovery reads)
        and inlines the fault-free equivalent."""
        rank = ctx.rank
        stack = self.stacks[rank]
        lk = self.stack_locks[rank]
        yield from ctx.lock(lk)
        stack.release(self.cfg.chunk_size)
        self._advertise(rank, stack.shared_chunks)
        yield from ctx.unlock(lk)
        self.stats[rank].releases += 1
        tr = self.tracer
        if tr.enabled:
            tr.emit(self.machine.sim.now, rank, "release",
                    (stack.shared_chunks,))
        if self._after_release_hook:
            yield from self.after_release(ctx)

    def after_release(self, ctx) -> Generator:
        """Per-release hook, owned by the termination policy (the
        cancelable barrier cancels itself here -- the remote write the
        paper blames for delaying working threads)."""
        yield from self._termination.after_release(ctx)

    def reacquire(self, ctx) -> Generator:
        """Move the newest shared chunk back to local, under lock.

        A thief queued ahead of us on our own lock may have taken the
        last chunk, so re-check under the lock before moving.
        """
        rank = ctx.rank
        stack = self.stacks[rank]
        lk = self.stack_locks[rank]
        yield from ctx.lock(lk)
        if stack.shared_chunks:
            stack.reacquire()
            self._advertise(rank, stack.shared_chunks)
            self.stats[rank].reacquires += 1
        yield from ctx.unlock(lk)

    # -- stealing -----------------------------------------------------------------

    def _claim(self, ctx, victim: int) -> Generator:
        """Lock the victim's stack, reserve chunk(s), transfer outside
        the critical region (Sect. 3.1 'Work Stealing').  Returns True
        if work was obtained."""
        rank = ctx.rank
        tr = self.tracer
        vstack = self.stacks[victim]
        lk = self.stack_locks[victim]
        yield from ctx.lock(lk)
        # Re-check availability under the lock (one shared reference).
        yield from ctx.compute(self.net.shared_ref(rank, victim))
        nch = vstack.shared_chunks
        if nch == 0:
            # The probe raced a competing thief or the owner; move on.
            yield from ctx.unlock(lk)
            if tr.enabled:
                tr.emit(self.machine.sim.now, rank, "steal.fail",
                        (victim, "empty"))
            return False
        take = self._steal_for(rank, nch)
        chunks = vstack.steal_chunks(take)
        nodes = flatten(chunks)
        self.in_flight_nodes += len(nodes)
        rt = self.faults_rt
        if rt is not None:
            # Journal the reserved nodes across the transfer: until
            # they land below they exist only in this thief's frame.
            rt.begin_transfer(rank, nodes)
        self._advertise(victim, vstack.shared_chunks)
        yield from ctx.compute(self.net.shared_ref(rank, victim))
        yield from ctx.unlock(lk)
        # One-sided transfer outside the critical region; the victim
        # keeps working during this.
        yield from ctx.chunk_get(victim, len(nodes))
        if rt is not None:
            rt.end_transfer(rank)
        self._steal_landed(ctx, victim, nodes, take)
        return True


class UpcSharedMem(LockBasedAlgorithm):
    """Sect. 3.1: lock-guarded split stacks, steal-one-chunk, and
    cancelable-barrier termination.  Performs well when remote
    references are cheap (SGI Altix) and collapses on clusters, where
    every release's barrier reset and every steal's remote locking eat
    the working threads alive -- which is exactly what Figure 4 shows.

    ``idle_strategy="park"`` is a no-op here (accepted, nothing to
    swap): a failed probe cycle sends the thread straight into the
    cancelable barrier, where it blocks on a SimEvent until a release
    cancels the barrier or the count completes, so no idle thread ever
    keeps a poll timer in the event queue.
    """

    name = "upc-sharedmem"
    steal_amount = staticmethod(steal_one)
    #: Native detector: the Sect. 3.1 cancelable barrier.  Streamlined
    #: is also hostable (that combination *is* upc-term; the tests pin
    #: both cross-overs).
    termination_policies = ("cancelable-barrier", "streamlined")


class UpcTerm(LockBasedAlgorithm):
    """Sect. 3.3.1: upc-sharedmem + streamlined termination.  The stack
    discipline (locks, steal-one) is unchanged; threads keep searching
    while any other thread is observed working, enter the barrier just
    once in the common case, and the last thread announces termination
    through a tree."""

    name = "upc-term"
    steal_amount = staticmethod(steal_one)
    termination_policies = ("streamlined", "cancelable-barrier")


class UpcTermRapdif(UpcTerm):
    """Sect. 3.3.2: upc-term + rapid diffusion -- a thief takes *half*
    the victim's available chunks (one if only one is available).
    Freshly fed thieves immediately re-release surplus, multiplying the
    number of "work sources" and cutting both the probes needed to find
    a victim and contention at the sources."""

    name = "upc-term-rapdif"
    steal_amount = staticmethod(steal_half)
