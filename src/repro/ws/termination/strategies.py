"""Termination detection as a pluggable policy axis.

Each strategy owns one algorithm instance's termination machinery: it
creates the barrier (exposed as ``algo.barrier`` for tests and fault
hooks), runs the idle-side detection phase, and declares how the
search loop and the release path must behave around it:

* ``persist_while_working`` -- whether a searching thread keeps probing
  while any other thread is observed working (streamlined, Sect. 3.3.1)
  or gives up after one failed cycle (cancelable barrier, Sect. 3.1);
* ``resets_on_release`` -- whether every release must cancel the
  barrier (the remote write the paper blames for upc-sharedmem's
  collapse);
* ``park_capable`` -- whether ``idle_strategy="park"`` switches the
  idle gate on in the one ``search_phase``, which then scans only
  victims with surplus and parks instead of polling (the cancelable
  barrier is already event-driven when idle, so park changes nothing
  there).

Algorithms declare the keys they support in ``termination_policies``
(first entry is the default) and :class:`~repro.ws.algorithms.base.AlgorithmBase`
resolves ``WsConfig.termination_policy`` against that list through
:func:`repro.ws.registry.lookup` -- which is what makes
"upc-sharedmem with streamlined termination" a config key away from
being ``upc-term`` (a property the tests pin).
"""

from __future__ import annotations

from typing import Generator

from repro.errors import ProtocolError
from repro.metrics.states import BARRIER, SEARCHING, STEALING
from repro.pgas.machine import UpcContext
from repro.sim.engine import Timeout
from repro.ws.config import BARRIER_POLL_MAX, BARRIER_POLL_MIN
from repro.ws.termination.cancelable_barrier import CancelableBarrier
from repro.ws.termination.streamlined import StreamlinedBarrier

__all__ = ["TerminationStrategy", "CancelableBarrierTermination",
           "StreamlinedTermination", "TokenRingTermination",
           "NoTermination", "TERMINATION_CLASSES"]


class TerminationStrategy:
    """Base strategy: holds the algorithm and the phase contracts."""

    key = "abstract"
    #: Search persistence the strategy requires (see module docstring).
    persist_while_working = True
    #: Every release must cancel the barrier.
    resets_on_release = False
    #: Park mode switches the idle gate on in ``search_phase``.
    park_capable = True

    def __init__(self, algo) -> None:
        self.algo = algo

    def phase(self, ctx: UpcContext) -> Generator:
        """Idle-side detection: returns True on global termination,
        False when work was obtained (caller resumes working)."""
        raise ProtocolError(
            f"{self.algo.name}: termination policy {self.key!r} has no "
            "standalone detection phase (it is fused into the "
            "algorithm's own idle loop)"
        )
        yield  # pragma: no cover - generator marker

    def after_release(self, ctx: UpcContext) -> Generator:
        """Per-release hook (only the cancelable barrier uses it)."""
        return
        yield  # pragma: no cover - generator marker

    def on_thread_death(self, rank: int) -> None:
        """Fail-stop recovery: a corpse must not wedge the detector."""


class CancelableBarrierTermination(TerminationStrategy):
    """Sect. 3.1: enter a cancelable barrier after one failed probe
    cycle; any release cancels it; the last thread in terminates."""

    key = "cancelable-barrier"
    persist_while_working = False
    resets_on_release = True
    #: Already event-driven when idle: a waiter blocks on a SimEvent
    #: until cancelled or terminated, keeping no poll timer in the
    #: event queue.  Park therefore swaps nothing in.
    park_capable = False

    def __init__(self, algo) -> None:
        super().__init__(algo)
        self.barrier = algo.barrier = CancelableBarrier(
            algo.machine, on_terminate=algo.quiescence_check)

    def phase(self, ctx: UpcContext) -> Generator:
        algo = self.algo
        st = algo.stats[ctx.rank]
        st.barrier_entries += 1
        algo.enter_state(ctx, BARRIER)
        terminated = yield from self.barrier.enter_and_wait(ctx)
        if terminated:
            return True
        st.barrier_exits += 1
        algo.enter_state(ctx, SEARCHING)
        return False

    def after_release(self, ctx: UpcContext) -> Generator:
        """Every release resets (cancels) the barrier -- the remote
        write the paper blames for delaying working threads."""
        yield from self.barrier.reset(ctx)

    def on_thread_death(self, rank: int) -> None:
        self.barrier.on_thread_death(rank)


class StreamlinedTermination(TerminationStrategy):
    """Sect. 3.3.1: threads enter a counted barrier only after a full
    probe cycle shows *every* other thread out of work; waiters probe
    one victim per poll (leave-steal-re-enter on a hit); the last
    thread in launches a tree-based announcement.

    The in-barrier probe/steal loop calls back into the algorithm's
    steal machinery (``try_steal``, ``barrier_service_hook``), so the
    phases here read protocol state through ``self.algo``.
    """

    key = "streamlined"

    def __init__(self, algo) -> None:
        super().__init__(algo)
        self.barrier = algo.barrier = StreamlinedBarrier(algo.machine)

    def on_thread_death(self, rank: int) -> None:
        """A corpse must not keep the counted barrier one short forever.
        The poll loop notices a barrier the death filled at its next
        tick; a parked waiter has no tick, and ``IdleGate.on_death``
        wakes only when the active set empties, so wake it here."""
        self.barrier.on_thread_death(rank)
        gate = self.algo._gate
        if gate is not None:
            gate.wake_all()

    def _declare(self, ctx: UpcContext,
                 after_death: bool = False) -> Generator:
        """This thread found the barrier full: check the declaration is
        sound, announce it through the tree, and -- under a gate --
        wake the parked waiters *after* ``terminated`` is set, so a
        woken waiter always observes the flag."""
        algo = self.algo
        algo.quiescence_check()
        tr = algo.tracer
        if after_death and tr.enabled:
            tr.emit(ctx.now, ctx.rank, "recover.barrier_death",
                    (self.barrier.count,))
        yield from self.barrier.announce(ctx)
        if algo._gate is not None:
            algo._gate.wake_all()

    def phase(self, ctx: UpcContext) -> Generator:
        """Enter / probe one / leave-steal-re-enter / announce, under
        either idle strategy.  What ``idle_strategy="park"`` changes is
        the waiting: a waiter that sees no surplus anywhere parks on
        the idle gate instead of keeping its poll Timeout in the event
        queue (the comment at the park says why every park is woken),
        and on wake resumes on its virtual poll cadence
        (:meth:`~repro.ws.algorithms.base.AlgorithmBase._park_resume_delay`),
        bounding its probe rate by the polling build's.
        """
        algo = self.algo
        rank = ctx.rank
        st = algo.stats[rank]
        st.barrier_entries += 1
        algo.enter_state(ctx, BARRIER)
        gate = algo._gate
        barrier = self.barrier
        last = yield from barrier.enter(ctx)
        if last:
            yield from self._declare(ctx)
            return True
        poll = BARRIER_POLL_MIN
        one = algo.probe_orders[rank].one
        slots = algo._wa_slots
        # One victim per poll never amortizes a cached per-rank cost
        # row (O(n) to build, O(n^2) machine-wide): price the probe from
        # the rank's reference-cost bounds, under either idle strategy.
        node_lo, node_hi, c_local, c_remote = algo.net.ref_cost_bounds(rank)
        recover = algo.faults_rt is not None
        slow = ctx._slow  # the rank's compute multiplier, fixed per run
        sim = algo.sim
        while True:
            yield from algo.barrier_service_hook(ctx)
            if barrier.terminated:
                return True
            if recover and barrier.announcer is None \
                    and barrier.count == barrier.alive:
                # A fail-stop elsewhere made this barrier full: every
                # surviving thread is counted in, so the system holds no
                # work (the corpses' work is accounted as lost).
                yield from self._declare(ctx, after_death=True)
                return True
            if gate is not None and gate.n_surplus == 0:
                # Nothing stealable anywhere (gate counters are exact):
                # the single-victim inspection would provably find
                # nothing, so park instead.  This is the only place a
                # waiter parks, and no yield separates it from the
                # service hook and the checks above ("check and park in
                # one event"), so neither a thief's request + targeted
                # wake, nor a death's or the announcer's wake_all, can
                # land in between and be lost.  The wake is guaranteed
                # -- by a surplus transition, by the last worker going
                # idle, by a death or by the announcer -- because a
                # barrier waiter is never the thread the rest of the
                # machine waits on.
                t_park = ctx.now
                ctx.trace("idle.park")
                yield gate.park(rank)
                ctx.trace("idle.wake")
                # Service before the cadence sleep: a targeted wake
                # (distmem) means a thief is blocked on our answer.
                yield from algo.barrier_service_hook(ctx)
                delay, poll = algo._park_resume_delay(
                    t_park, poll, ctx.now, BARRIER_POLL_MAX, 2.0)
                if delay > 0:
                    yield Timeout(delay)
                continue
            # Inspect a single other thread (Sect. 3.3.1).
            victim = one()
            st.probes += 1
            cost = c_local if node_lo <= victim < node_hi else c_remote
            if cost > 0:
                yield Timeout(cost * slow)  # ctx.compute, frameless
            avail = slots[victim].remote_read(sim.now, rank)
            if avail > 0:
                # Leave the barrier before touching the work so the
                # count never certifies termination with work in flight.
                yield from barrier.leave(ctx)
                algo.enter_state(ctx, STEALING)
                ok = yield from algo.try_steal(ctx, victim)
                if ok:
                    st.barrier_exits += 1
                    algo.enter_state(ctx, SEARCHING)
                    return False
                algo.enter_state(ctx, BARRIER)
                last = yield from barrier.enter(ctx)
                if last:
                    yield from self._declare(ctx)
                    return True
                poll = BARRIER_POLL_MIN
                continue
            if gate is not None and gate.n_surplus == 0:
                # The surplus vanished during the probe's yield: go
                # park from the loop top, not from here -- a request +
                # wake that landed during that yield found us not yet
                # parked (a no-op wake), and parking without re-running
                # the service hook would sleep on it forever.
                continue
            yield Timeout(poll * slow)
            poll = min(poll * 2.0, BARRIER_POLL_MAX)


class TokenRingTermination(TerminationStrategy):
    """Marker for mpi-ws: the token ring is fused into its one
    message-driven idle loop (:meth:`MpiWorkStealing.idle_phase`) --
    Dijkstra's ring fault-free, Safra's (colour plus a WORK
    send/receive deficit, relaunched on loss) under a fault plan -- so
    there is no standalone phase to run here."""

    key = "token"


class NoTermination(TerminationStrategy):
    """Marker for the open-system service pool: an open system never
    terminates by quiescence -- the service's exact drain ledger
    (``service.close``) decides when workers stop."""

    key = "none"
    persist_while_working = False


TERMINATION_CLASSES = {
    cls.key: cls
    for cls in (CancelableBarrierTermination, StreamlinedTermination,
                TokenRingTermination, NoTermination)
}
