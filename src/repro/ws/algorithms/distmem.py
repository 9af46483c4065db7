"""``upc-distmem``: the distributed-memory algorithm (Sect. 3.3), and
its locality-aware ``upc-distmem-hier`` declaration (Sect. 6.2).

All three refinements together:

* streamlined termination (3.3.1) -- via the pluggable
  :class:`~repro.ws.termination.strategies.StreamlinedTermination`
  policy,
* rapid diffusion (3.3.2) -- thieves take half the available chunks,
* **lock-less DFS stack** (3.3.3) -- the owner is the only thread that
  ever touches its stack.  A thief writes its ID into a lock-protected
  *request variable* at the victim; the victim polls that variable (a
  free local read) between batches of tree work and services a pending
  request with two remote writes (grant size + work location) plus a
  local reset.  The thief then pulls the nodes with a one-sided get
  while the victim keeps working.

The victim services or denies requests at every poll point in every
state (working, searching, in-barrier, and -- under fault injection --
even while itself blocked awaiting a steal response), so a thief never
waits unboundedly: either the request is granted, or it is denied and
the thief resumes probing.

The main loop, the Working state and both search phases are the shared
skeleton in :class:`~repro.ws.algorithms.base.AlgorithmBase`; this
class plugs in the ``request`` poll slots and
:meth:`UpcDistMem.service_request` -- with no own-stack lock set, the
one working loop *is* the lock-less stack of Sect. 3.3.3.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.pgas.machine import UpcContext
from repro.sim.engine import SimEvent, Timeout
from repro.ws.algorithms.base import AlgorithmBase, flatten
from repro.ws.config import SEARCH_BACKOFF_MIN

__all__ = ["UpcDistMem", "UpcDistMemHier"]

#: Sentinel a thief's give-up watch fires its response event with when
#: the victim is suspected dead (distinguishable from a denial ``[]``).
_GAVE_UP = object()


class UpcDistMem(AlgorithmBase):
    name = "upc-distmem"
    steal_policies = ("half", "one", "all")
    #: Streamlined only: the lock-free request/response protocol has no
    #: notion of a per-release barrier reset, so the cancelable barrier
    #: cannot be hosted here.
    termination_policies = ("streamlined",)

    def setup(self) -> None:
        #: request[v] holds the rank of the thief requesting from v.
        self.request = self.machine.shared_array("steal_request", init=None)
        #: Locks guarding the request variables (NOT the stacks).
        self.req_locks = self.machine.lock_array("req_lock")
        #: Simulated "response variable" at each thief: a one-shot event
        #: the victim fires with the granted chunks (spinning on it is a
        #: local read, hence free for the thief).
        self.response_events: List[Optional[SimEvent]] = [None] * self.machine.n_threads

    # -- victim side -----------------------------------------------------------

    def service_request(self, ctx: UpcContext) -> Generator:
        """Poll the local request variable; service a pending request.

        Free when no request is pending (a local read).  Granting costs
        the victim two remote writes; the reset is a local write.
        """
        rank = ctx.rank
        slot = self.request[rank]
        thief = slot.value
        if thief is None:
            return
        stack = self.stacks[rank]
        st = self.stats[rank]
        rt = self.faults_rt
        if stack.shared_chunks > 0:
            # Per-thief policy: the greedy adversary's rank drains the
            # whole shared region; everyone else takes the algorithm's
            # native amount.
            take = self._steal_for(thief, stack.shared_chunks)
            chunks = stack.steal_chunks(take)
            nodes = flatten(chunks)
            self.in_flight_nodes += len(nodes)
            self._advertise(rank, stack.shared_chunks)
            st.requests_granted += 1
            if rt is not None:
                # Journal the granted nodes across the yield below: if
                # this victim fail-stops mid-service they exist only in
                # this frame.
                rt.begin_transfer(rank, nodes)
        else:
            chunks = nodes = []
            st.requests_denied += 1
            tr = self.tracer
            if tr.enabled:
                tr.emit(self.machine.sim.now, rank, "steal.deny", (thief,))
        # Two remote writes (amount given + address of the work).  These
        # are one-sided puts issued outside any critical section: the
        # victim pays only local injection overhead and keeps working;
        # the thief sees the response a network latency later.
        cost = 2.0 * self.net.msg_injection
        if cost > 0:
            yield Timeout(cost * ctx._slow)  # ctx.compute, frameless
        slot.poke(None)  # local reset of the request variable
        ev = self.response_events[thief]
        self.response_events[thief] = None
        if rt is not None:
            if nodes:
                rt.end_transfer(rank)
            if ev is None:
                # The thief fail-stopped while waiting: its response
                # event was retired at death.  The popped nodes have
                # nowhere to go -- account them as lost.
                if nodes:
                    self.in_flight_nodes -= len(nodes)
                    rt.account_lost(nodes)
                return
            if nodes:
                # Re-journal under the thief until it pushes them.
                rt.register_response(thief, nodes)
        ev.succeed(chunks, delay=self.net.shared_ref(rank, thief))
        tr = self.tracer
        if tr.enabled:
            tr.emit(self.machine.sim.now, rank, "service",
                    (thief, len(chunks)))

    # -- thief side --------------------------------------------------------------

    def _claim(self, ctx: UpcContext, victim: int) -> Generator:
        """Write our ID into the victim's request variable and await the
        response (Sect. 3.3.3).  Returns True if work was obtained."""
        rank = ctx.rank
        tr = self.tracer
        lk = self.req_locks[victim]
        # "Attempts to write its thread ID" -- a lock *attempt*: if the
        # slot's lock is held, another thief is requesting; rather than
        # queue (and pile up like the lock-based steal), move on.
        got = yield from ctx.try_lock(lk)
        if not got:
            if tr.enabled:
                tr.emit(self.machine.sim.now, rank, "steal.fail",
                        (victim, "busy"))
            return False
        # Read the request variable under its lock (one shared
        # reference, charged as ctx.compute would: a lone Timeout).
        ref = self.net.shared_ref(rank, victim)
        if ref > 0:
            yield Timeout(ref * ctx._slow)
        if self.request[victim].value is not None:
            # Another thief got there first this round.
            yield from ctx.unlock(lk)
            if tr.enabled:
                tr.emit(ctx.now, rank, "steal.fail", (victim, "raced"))
            return False
        ev = self.machine.sim.event(name=f"response.T{rank}")
        self.response_events[rank] = ev
        rt = self.faults_rt
        if rt is not None and rt.watching_deaths:
            # A dead victim never answers; the watch fires our response
            # event with the give-up sentinel once the failure detector
            # suspects it.
            self.machine.sim.spawn(self._give_up_watch(ev, rank, victim),
                                   name=f"giveup.T{rank}")
        if ref > 0:
            yield Timeout(ref * ctx._slow)
        self.request[victim].poke(rank)
        if self._gate is not None:
            # The victim may have consumed its surplus and parked in the
            # probe->poke window; a parked victim polls only on wake, so
            # wake it to service (grant or deny) this request -- we are
            # about to block on its response.
            self._gate.wake(victim)
        yield from ctx.unlock(lk)
        # Wait for the victim's response -- spinning on our own response
        # variable, a local read, so no cost beyond the elapsed time.
        if rt is None:
            # Blocking bare is safe fault-free even though requests DO
            # land on blocked thieves (the probe->poke window spans
            # several latencies, so a request aimed at us while we
            # still had work can arrive after we blocked here).  No
            # *cycle* of such waits can form: each edge i->j needs
            # i's probe of j to precede j's NO_WORK poke, and every
            # probe follows the prober's own NO_WORK poke, so a cycle
            # would need poke(i) < poke(j) for every edge around it --
            # a contradiction.  The parked request is denied at our
            # next poll point once the victim answers us.
            chunks = yield ev
        else:
            # Under fault injection that ordering argument breaks: a
            # stale work_avail window lets thief i probe j *before*
            # i's own NO_WORK poke becomes visible, so two thieves can
            # end up requesting each other and blocking on each
            # other's response -- a mutual deadlock.  Keep denying our
            # own slot while we wait.
            while not (ev.fired or ev.scheduled):
                yield from self.service_request(ctx)
                if ev.fired or ev.scheduled:
                    break
                yield Timeout(SEARCH_BACKOFF_MIN)
            chunks = yield ev
        if chunks is _GAVE_UP:
            rt.counters.steal_timeouts += 1
            if tr.enabled:
                tr.emit(ctx.now, rank, "steal.fail", (victim, "giveup"))
                tr.emit(ctx.now, rank, "recover.giveup", (victim,))
            return False
        if not chunks:
            if tr.enabled:
                tr.emit(self.machine.sim.now, rank, "steal.fail",
                        (victim, "denied"))
            return False
        nodes = flatten(chunks)
        yield from ctx.chunk_get(victim, len(nodes))
        self._advertise(rank, 0)
        if rt is not None:
            rt.clear_response(rank)
        self._steal_landed(ctx, victim, nodes, len(chunks))
        return True

    def _give_up_watch(self, ev: SimEvent, rank: int, victim: int) -> Generator:
        """Background watch on one steal transaction (faulted runs with
        kills only): fire the thief's response event with ``_GAVE_UP``
        if the victim is suspected dead before a response arrives."""
        rt = self.faults_rt
        while True:
            if ev.fired or ev.scheduled:
                return  # answered (or already given up)
            if self.response_events[rank] is not ev:
                return  # transaction retired (thief itself died)
            if rt.suspected(victim):
                self.response_events[rank] = None
                ev.succeed(_GAVE_UP)
                return
            yield Timeout(rt.plan.heartbeat_period)

    def barrier_service_hook(self, ctx: UpcContext) -> Generator:
        """In-barrier threads still deny racing steal requests."""
        if self.request[ctx.rank].value is not None:
            yield from self.service_request(ctx)

    def on_thread_death(self, rank: int) -> None:
        """Retire the corpse's steal transaction (its give-up watch and
        any victim mid-service both key off the cleared slot) and count
        it out of the termination barrier."""
        super().on_thread_death(rank)
        self.response_events[rank] = None


class UpcDistMemHier(UpcDistMem):
    """Sect. 6.2, the paper's stated future work: "first try to steal
    work within a cluster node before probing off-node" (discoverable
    in Berkeley UPC through ``bupc_thread_distance()``).

    ``upc-distmem`` with a hierarchical probe order: every probe cycle
    inspects the same-node ranks (node-local shared references, ~50x
    cheaper on the cluster models) before any off-node rank, and
    in-barrier probing prefers on-node victims.  On machines with
    multicore nodes (Kitty Hawk: 4 ranks/node; Topsail: 8) this
    shortens the work-discovery path whenever a neighbour has surplus.
    The whole difference is the class attribute below: ``upc-distmem``
    with ``victim_policy="hierarchical"`` in the config produces this
    variant's schedule bit-for-bit (pinned by ``tests/scenarios``).
    """

    name = "upc-distmem-hier"
    victim_policies = ("hierarchical", "uniform")
