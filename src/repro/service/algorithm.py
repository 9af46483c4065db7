"""The service pool algorithm: batch steal protocols, task-aware.

:class:`ServiceAlgorithm` wraps the lock-based work-stealing machinery
(working phase, release/reacquire, probe-and-steal, idle gate) around
an *open* work source: instead of draining one tree to global
termination, each worker alternates between depleting its stack and
pulling the next admitted task from the :class:`ServiceRuntime` queue.
Global termination detection is replaced by the service's exact drain
ledger (``service.close``); the per-task analogue -- "this query's
subtree is fully visited" -- is detected by the workload's outstanding
counters with zero protocol traffic.

Idle behaviour differs from the batch algorithms in one deliberate way:
under ``idle_strategy="park"`` a worker may park even when the whole
pool is idle (``n_active == 0``), because in an open system quiescence
is not termination -- the next arrival (or a retry timer) is an
external wake source the batch algorithms don't have.  Arrivals wake
one parked worker per admitted task; steal diffusion (wake-on-surplus)
ramps the rest when a task fans out.

This algorithm is intentionally *not* in :data:`repro.ALGORITHMS` --
that registry enumerates the paper's closed-batch variants; the
service pool is reached via :func:`repro.service.driver.run_service`.
"""

from __future__ import annotations

from typing import Generator

from repro.pgas.machine import UpcContext
from repro.ws.algorithms.lock_based import LockBasedAlgorithm
from repro.ws.config import (SEARCH_BACKOFF_FACTOR, SEARCH_BACKOFF_MAX,
                              SEARCH_BACKOFF_MIN)

__all__ = ["ServiceAlgorithm"]


class ServiceAlgorithm(LockBasedAlgorithm):
    name = "service-ws"
    #: Steal-half: service tasks are small subtrees, and halving spreads
    #: a hot task across ranks in O(log nodes) steals.
    steal_policies = ("half", "one", "all")
    #: An open system never terminates by quiescence: the drain ledger
    #: (``service.close``) decides when workers stop, so no detector
    #: can be plugged in.
    termination_policies = ("none",)

    #: Injected by ServiceRuntime before the machine runs (also read by
    #: the invariant monitor's task-conservation check).
    service = None

    def thread_main(self, ctx: UpcContext) -> Generator:
        rank = ctx.rank
        stack = self.stacks[rank]
        svc = self.service
        gate = self._gate
        backoff = SEARCH_BACKOFF_MIN
        work = self._fused(rank)["work"] is None
        phase = None
        sphase = self._compiled("search", rank)
        while True:
            if not stack.is_empty:
                if work:
                    # The compiled Working state, bound at the first
                    # entry as in AlgorithmBase.thread_main; with no
                    # poll point (switch (a) off) it never bounces.
                    phase = phase or self._compiled("work", rank)
                    yield phase
                else:
                    yield from self.working_phase(ctx)
                backoff = SEARCH_BACKOFF_MIN
                continue
            # Pop-and-start is synchronous with the push: no yield in
            # between, so a kill can never orphan a half-taken task.
            task = svc.take(rank)
            if task is not None:
                stack.push(task.root)
                backoff = SEARCH_BACKOFF_MIN
                continue
            if svc.finished:
                break
            # No detector persists: one failed cycle (under a gate, no
            # surplus to scan) ends the search.
            if sphase is not None:
                found = yield from self._search_fused(ctx, sphase)
            else:
                found = yield from self.search_phase(ctx)
            if found:
                backoff = SEARCH_BACKOFF_MIN
                continue
            # Nothing queued, nothing stealable.  Re-check the queue
            # before sleeping: a same-instant arrival may have landed
            # while this thread was mid-probe.
            if svc.finished or svc.queue:
                continue
            if gate is not None:
                if gate.n_surplus > 0:
                    continue
                # Unlike the batch loop, park even at n_active == 0:
                # the dispatcher and retry timers wake us from outside.
                ctx.trace("idle.park")
                yield gate.park(rank)
                ctx.trace("idle.wake")
                continue
            yield from ctx.compute(backoff)
            backoff = min(backoff * SEARCH_BACKOFF_FACTOR, SEARCH_BACKOFF_MAX)
