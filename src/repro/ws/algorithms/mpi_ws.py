"""``mpi-ws``: message-passing work stealing (Sect. 3.2, Dinan et al.).

Two-sided protocol over :mod:`repro.msg`:

* An idle thread sends a ``REQUEST`` to a random victim and polls for
  the reply while servicing other traffic (parked, it blocks only while
  that REQUEST is out, so request cycles cannot deadlock).
* Working threads poll for requests every ``poll_interval`` nodes --
  the user-tunable polling interval the paper mentions -- and answer
  with one chunk of work (``WORK``) or a denial (``NOWORK``).
* Termination is Dijkstra's token algorithm on a ring
  (:mod:`repro.ws.termination.token`); rank 0 broadcasts ``TERM`` when
  a white token survives a full round (Safra's variant under faults).

The stack needs no locks (single owner, like the paper notes for MPI),
but every steal costs a full request/response message exchange and is
delayed by the victim's polling interval.
"""

from __future__ import annotations

from functools import partial
from typing import Generator

from repro.msg.comm import MsgWorld
from repro.net.model import NODE_DESC_BYTES
from repro.pgas.machine import UpcContext
from repro.ws.algorithms.base import AlgorithmBase
from repro.ws.config import (SEARCH_BACKOFF_FACTOR, SEARCH_BACKOFF_MAX,
                              SEARCH_BACKOFF_MIN)
from repro.ws.termination.token import BLACK, WHITE, TokenState

__all__ = ["MpiWorkStealing"]

REQUEST = "REQUEST"
WORK = "WORK"
NOWORK = "NOWORK"
TOKEN = "TOKEN"
TERM = "TERM"

_CTRL_BYTES = 8  # control messages: a tag and a word of payload


class MpiWorkStealing(AlgorithmBase):
    name = "mpi-ws"
    #: Termination (Dijkstra/Safra token ring) is fused into the
    #: message-driven idle loops below; "token" is a marker policy
    #: (no standalone detection phase), and no other detector fits the
    #: two-sided protocol.
    termination_policies = ("token",)
    #: One chunk per WORK message, as in the reference implementation:
    #: a request names no amount, so no other steal policy can act.
    steal_policies = ("one",)

    # Fault model: the control channel (requests, denials, termination
    # tokens) is lossy -- droppable and duplicable.  WORK and TERM ride
    # a reliable (delay-only) channel: losing a work payload silently
    # would corrupt the count the protocol is supposed to conserve.
    droppable_tags = frozenset({REQUEST, NOWORK, TOKEN})
    duplicable_tags = frozenset({REQUEST, NOWORK, TOKEN})
    #: The fusion gate's table: the Working state, and the idle wait
    #: in place of the probe search.
    _COMPILED = {"work": ("AlgorithmBase.working_phase",), "idle": ()}

    def setup(self) -> None:
        self.world = MsgWorld(self.machine)
        self.endpoints = [self.world.endpoint(c, st) for c, st
                          in zip(self.machine.contexts, self.stats)]
        #: Prebuilt tag filter for the per-batch poll (iprobe uses a
        #: frozenset argument as-is instead of rebuilding one per call).
        self._poll_tags = frozenset((REQUEST, TOKEN))
        self.tokens = [TokenState(r, self.machine.n_threads)
                       for r in range(self.machine.n_threads)]
        self.terminated = False
        if self.faults_rt is not None:
            n = self.machine.n_threads
            # Sequence-numbered steal transactions (dedup + timeout).
            self._req_seq = [0] * n           # per-thief next sequence
            self._seen_seq = [dict() for _ in range(n)]  # victim: thief->seq
            # Safra-style termination: per-rank WORK send/receive
            # deficits and a (round, colour, deficit) ring token.
            self._wsent = [0] * n
            self._wrecv = [0] * n
            self._held = [None] * n           # token held at each rank
            self._tok_seen_round = [0] * n    # last round each rank forwarded
            self._round = 0                   # rank 0: current round number
            self._tok_inflight = False
            self._tok_launched = 0.0
            self._round_deaths = 0            # len(dead) at round launch

    # -- messaging helpers ---------------------------------------------------

    def _send(self, ctx: UpcContext, dst: int, tag: str, payload=None,
              nbytes: int = _CTRL_BYTES) -> Generator:
        """The endpoint's send itself (it counts ``msgs_sent``)."""
        return self.endpoints[ctx.rank].send(dst, tag, payload, nbytes)

    def _serve_request(self, ctx: UpcContext, thief: int, seq=None):
        """Answer a steal request: one chunk if the shared region has
        one, else a denial.

        Books it now and returns the reply to ``yield from`` at once:
        the bare send (no frame of its own) unless a faulted or traced
        grant needs :meth:`_grant` around it; ``()`` for a duplicate.

        Under faults, requests carry a per-thief sequence number:
        duplicates (the fault layer may deliver a REQUEST twice) are
        suppressed here, and the denial echoes the sequence so the
        thief can match it against its outstanding transaction.
        """
        rank = ctx.rank
        stack = self.stacks[rank]
        st = self.stats[rank]
        rt = self.faults_rt
        tr = self.tracer
        if rt is not None and seq is not None:
            seen = self._seen_seq[rank]
            if seq <= seen.get(thief, -1):
                rt.counters.dup_requests_suppressed += 1
                if tr.enabled:
                    tr.emit(self.sim.now, rank, "recover.dup_suppressed",
                            (thief, seq))
                return ()
            seen[thief] = seq
        if stack.shared_chunks > 0:
            chunk = stack.steal_chunks(1)[0]
            self.in_flight_nodes += len(chunk)
            st.requests_granted += 1
            if rt is None:
                self.tokens[rank].on_sent_work(thief)
            send = self._send(ctx, thief, WORK, payload=chunk,
                              nbytes=len(chunk) * NODE_DESC_BYTES + _CTRL_BYTES)
            if rt is None and not tr.enabled:
                return send
            return self._grant(ctx, thief, chunk, send)
        st.requests_denied += 1
        if tr.enabled:
            tr.emit(self.sim.now, rank, "steal.deny", (thief,))
        return self._send(ctx, thief, NOWORK, payload=seq)

    def _grant(self, ctx: UpcContext, thief: int, chunk, send) -> Generator:
        """A grant's ``send`` under faults -- journalled, since a thread
        killed mid-send holds the nodes only in this frame, with the
        deficit increment atomic with the post -- or traced."""
        rank = ctx.rank
        rt = self.faults_rt
        if rt is not None:
            rt.begin_transfer(rank, chunk)
        yield from send
        if rt is not None:
            rt.end_transfer(rank)
            self._wsent[rank] += 1
        tr = self.tracer
        if tr.enabled:
            tr.emit(self.sim.now, rank, "service", (thief, 1))

    def _broadcast_term(self, ctx: UpcContext) -> Generator:
        """Rank 0 declares termination.  Fault-free it roots a binary
        TERM tree -- receivers forward to their children, so the
        announcement costs O(log n) serial hops instead of n serial
        sends from rank 0; under faults TERM goes straight to every live
        rank (the tree could route through a corpse), on the reliable
        channel."""
        self.quiescence_check()
        self.terminated = True
        rt = self.faults_rt
        if rt is None:
            yield from self._forward_term(ctx)
        else:
            for dst in range(1, self.machine.n_threads):
                if dst not in rt.dead:
                    yield from self._send(ctx, dst, TERM)
        ctx.trace("mpi.term")

    def _forward_term(self, ctx: UpcContext) -> Generator:
        """Send TERM to our children in the binary announcement tree."""
        for dst in (2 * ctx.rank + 1, 2 * ctx.rank + 2):
            if dst < self.machine.n_threads:
                yield from self._send(ctx, dst, TERM)

    # -- working state: switches (a) and (b) ------------------------------------

    #: No ``work_avail`` protocol: thieves ask by message, not by probe.
    _publishes_avail = False

    def _mail(self, rank: int):
        """The MPI polling point: the rank's mailbox heap (the loops,
        Python and C alike, test its head's arrival time inline) and a
        taker of one delivered REQUEST/TOKEN."""
        return (self.world._pending[rank],
                partial(self.endpoints[rank].iprobe, self._poll_tags))

    def _working_msg(self, ctx: UpcContext, msg):
        """Handle one message taken while working (by the Python loop
        or the compiled phase's bounce).  Returns what answers a
        REQUEST, for the caller to delegate to -- a served request
        costs no extra frame -- or None: token absorbed."""
        rank = ctx.rank
        if msg.tag == REQUEST:
            return self._serve_request(ctx, msg.src, seq=msg.payload)
        if self.faults_rt is not None:
            # Hold (or discard a stale copy of) the ring token; it is
            # evaluated/forwarded once this thread idles.
            self._accept_token(rank, msg.payload)
        else:
            # Busy: hold the token until idle.  Rank 0 receiving the
            # token while busy invalidates the round.
            self.tokens[rank].on_token(BLACK if rank == 0 else msg.payload)
        return None

    # -- idle phase ----------------------------------------------------------------

    def _token_duties(self, ctx: UpcContext) -> Generator:
        """Dijkstra token duties of an idle rank (fault-free): evaluate
        or pass on a held token; rank 0 launches one when none is out.
        Returns ``"term"`` when rank 0 declared termination, ``"sent"``
        when a token went out, else None."""
        rank = ctx.rank
        token = self.tokens[rank]
        if token.holding is not None:
            if rank != 0:
                colour = token.forward()
                self.stats[rank].tokens_forwarded += 1
            elif token.round_succeeded():
                yield from self._broadcast_term(ctx)
                return "term"
            else:
                colour = token.initiate()
        elif rank == 0 and not token.in_flight:
            token.launch()
            colour = WHITE
        else:
            return None
        tr = self.tracer
        if tr.enabled:
            tr.emit(self.sim.now, rank, "token.hop",
                    (token.next_rank, colour))
        yield from self._send(ctx, token.next_rank, TOKEN, payload=colour)
        return "sent"

    def _send_request(self, ctx: UpcContext, timeout) -> Generator:
        """Post a steal REQUEST to a random victim.  Returns the open
        transaction ``(victim, seq, deadline)`` -- ``seq`` and
        ``deadline`` None fault-free -- or None when the failure
        detector suspects every victim."""
        rank = ctx.rank
        rt = self.faults_rt
        one = self.probe_orders[rank].one
        if rt is None:
            victim = one()
            seq = None
        else:
            # A victim the failure detector does not suspect.
            for _ in range(self.machine.n_threads):
                victim = one()
                if not rt.suspected(victim):
                    break
            else:
                return None
            seq = self._req_seq[rank]
            self._req_seq[rank] = seq + 1
        st = self.stats[rank]
        st.steal_attempts += 1
        st.probes += 1
        tr = self.tracer
        if tr.enabled:
            tr.emit(self.sim.now, rank, "steal.req", (victim,))
        yield from self._send(ctx, victim, REQUEST, payload=seq)
        if rt is not None:
            return victim, seq, ctx.now + timeout
        if self._dup_ranks is not None and rank in self._dup_ranks:
            # Duplicating-steal adversary: a second REQUEST on the
            # wire.  Fault-free the protocol is dup-safe by
            # construction -- the extra NOWORK just re-clears
            # ``outstanding``; an extra WORK is consumed by the next
            # idle episode.  (Faulted runs dedup by sequence, so the
            # adversary targets this path.)
            if tr.enabled:
                tr.emit(self.sim.now, rank, "steal.req", (victim, 1))
            yield from self._send(ctx, victim, REQUEST)
        return victim, None, None

    def idle_phase(self, ctx: UpcContext) -> Generator:
        """Search for work by messaging; handle tokens; detect TERM.

        Returns True on termination, False when work has been obtained.
        One loop -- drain the mailbox, token duties, post a REQUEST or
        time one out, wait -- under three switches read before it
        starts, None meaning off:

        * ``rt``, the fault runtime: steal transactions carry sequence
          numbers and time out, the ring is Safra's
          (:meth:`_safra_duties`) instead of Dijkstra's
          (:meth:`_token_duties`), and rank 0 relaunches a lost token
          (the block comment below has the design).
        * ``gate``, the idle gate (``idle_strategy="park"``), fault-free
          only: faults win, so a park run with a fail-stop plan polls.
          The two-sided protocol means an idle rank can never go fully
          silent -- it answers requests, circulates the token and keeps
          its own REQUEST outstanding -- so parking is a blocking
          :meth:`~repro.msg.comm.MsgEndpoint.recv` in place of the
          backoff poll while the mailbox is empty and a REQUEST is out:
          the rank sleeps in the message layer's waiter registry and is
          woken by exactly the traffic it would poll for (deadlock-free:
          a blocked rank always has a REQUEST in flight, and fault-free
          every REQUEST is answered).  The backoff paces the next
          REQUEST *before* it is sent and never resets on progress,
          bounding a fully idle machine's request traffic at
          ``1/backoff_max`` per rank (a reset per served message would
          keep 4096 mostly idle ranks at the floor cadence).  Still
          O(messages), not O(active): the paper's one-sided versus
          two-sided contrast, measurable in E11.
        * ``phase``, the compiled wait, where the fusion gate binds
          ``idle`` (never under either switch): during an idle wait the
          only observable change is a message landing in our mailbox --
          token and request state mutate only inside our own
          iterations -- so the backoff polls between iterations run in
          C against the mailbox heap alone.
        """
        rank = ctx.rank
        if self.machine.n_threads == 1:
            # Alone: local exhaustion is global termination.  The TERM
            # tree has no children, so this only declares it.
            yield from self._broadcast_term(ctx)
            return True
        ep = self.endpoints[rank]
        rt = self.faults_rt
        gate = self._gate if rt is None else None
        phase = self._compiled("idle", rank)
        duties = self._token_duties if rt is None else self._safra_duties
        tr = self.tracer
        backoff = SEARCH_BACKOFF_MIN
        timeout = timeout0 = rt.plan.steal_timeout if rt is not None else None
        outstanding = None  # the one open steal: (victim, seq, deadline)
        while True:
            progressed = False
            msg = ep.iprobe()
            if msg is None and gate is not None and outstanding is not None:
                msg = yield from ep.recv()
            while msg is not None:
                progressed = True
                tag = msg.tag
                if tag == TERM:
                    if rt is None:
                        yield from self._forward_term(ctx)
                    return True
                if tag == REQUEST:
                    # Our stack is empty: this is a denial.
                    yield from self._serve_request(ctx, msg.src,
                                                   seq=msg.payload)
                elif tag == TOKEN:
                    if rt is None:
                        self.tokens[rank].on_token(msg.payload)
                    else:
                        self._accept_token(rank, msg.payload)
                elif tag == WORK:
                    if rt is not None:
                        # Accept work whichever transaction it answers
                        # -- discarding a late grant would lose nodes.
                        # Receipt blackens this rank (Safra).
                        self._wrecv[rank] += 1
                        self.tokens[rank].colour = BLACK
                    self._steal_landed(ctx, msg.src, msg.payload, 1)
                    return False
                elif rt is None or (outstanding is not None
                                    and msg.src == outstanding[0]
                                    and msg.payload == outstanding[1]):
                    # NOWORK: faulted, only the open transaction's counts
                    if tr.enabled:
                        tr.emit(self.sim.now, rank, "steal.fail",
                                (msg.src, "denied"))
                    outstanding = None
                    timeout = timeout0
                else:
                    rt.counters.stale_responses += 1
                msg = ep.iprobe()
            duty = yield from duties(ctx)
            if duty == "term":
                return True
            if duty is not None:
                progressed = True
            # One outstanding steal request at a time.
            if outstanding is None:
                if gate is not None:
                    # Pace the next REQUEST before sending it, then loop
                    # back to drain traffic that landed during the pace
                    # before blocking on the answer.
                    yield from ctx.compute(backoff)
                    backoff = min(backoff * SEARCH_BACKOFF_FACTOR,
                                  SEARCH_BACKOFF_MAX)
                outstanding = yield from self._send_request(ctx, timeout)
                if outstanding is not None:
                    progressed = True
            elif rt is not None and (ctx.now >= outstanding[2]
                                     or rt.suspected(outstanding[0])):
                # No reply in time: the request or denial was dropped,
                # or the victim died.  Abandon the transaction; a late
                # denial is recognised by its stale sequence number.
                rt.counters.steal_timeouts += 1
                if tr.enabled:
                    tr.emit(self.sim.now, rank, "steal.fail",
                            (outstanding[0], "timeout"))
                    tr.emit(self.sim.now, rank, "recover.steal_timeout",
                            (outstanding[0],))
                outstanding = None
                timeout = rt.next_steal_timeout(timeout)
                progressed = True
            if gate is not None:
                continue  # the wait is the blocking recv above
            if phase is not None:
                # C wait loop: the compute(backoff) events and the
                # empty-mailbox polls run compiled; control returns
                # here as soon as a delivered message is visible.
                if progressed:
                    phase.reset()
                yield phase
            else:
                if progressed:
                    backoff = SEARCH_BACKOFF_MIN
                yield from ctx.compute(backoff)
                backoff = min(backoff * SEARCH_BACKOFF_FACTOR,
                              SEARCH_BACKOFF_MAX)

    # -- fault-tolerant mode (active only with a FaultPlan) ------------------
    #
    # Recovery design (docs/fault-model.md):
    # * Steal transactions are sequence-numbered.  A thief keeps one
    #   outstanding REQUEST with a timeout (exponential backoff); a lost
    #   request or denial costs a timeout, a duplicated one is suppressed
    #   by sequence, and a late response is discarded as stale.
    # * Termination is a Safra-style ring token ``(round, colour,
    #   deficit)``.  Receiving WORK blackens a rank; each rank adds its
    #   WORK send/receive deficit when forwarding and whitens.  Rank 0
    #   declares termination only on a white token with zero total
    #   deficit (including dead ranks' deficits), so delayed work in
    #   flight always blocks the declaration.  Lost or dropped tokens
    #   are relaunched by rank 0 after ``ring_timeout`` of silence;
    #   per-round forwarding guards make duplicates harmless.
    # * Dead ranks: routed around via the heartbeat failure detector;
    #   their mailboxes are drained at death with every orphaned WORK
    #   payload counted both received (deficit) and lost (accounting).

    def _accept_token(self, rank: int, payload) -> None:
        """Hold an arriving ring token, discarding stale/duplicate ones."""
        counters = self.faults_rt.counters
        rnd = payload[0]
        if rank == 0:
            if not self._tok_inflight or rnd != self._round:
                counters.stale_tokens += 1
                return
            self._tok_inflight = False
            self._held[0] = payload
        else:
            # One forward per round per rank: a duplicated TOKEN either
            # finds this rank already holding (first guard) or already
            # past that round (second guard).
            if self._held[rank] is not None or rnd <= self._tok_seen_round[rank]:
                counters.stale_tokens += 1
                return
            self._held[rank] = payload

    def _next_alive(self, rank: int) -> int:
        """Next ring member, skipping ranks the detector suspects."""
        n = self.machine.n_threads
        dst = (rank + 1) % n
        while dst != rank and self.faults_rt.suspected(dst):
            dst = (dst + 1) % n
        return dst

    def _launch_token(self, ctx: UpcContext) -> Generator:
        """Rank 0: start a fresh token round around the live ring."""
        self._round += 1
        self._round_deaths = len(self.faults_rt.dead)
        token = self.tokens[0]
        token.rounds += 1
        token.colour = WHITE
        self._tok_inflight = True
        self._tok_launched = ctx.now
        payload = (self._round, WHITE, 0)
        dst = self._next_alive(0)
        if dst == 0:
            # Every other rank is dead: the ring is rank 0 alone; hold
            # our own token and evaluate it on the next loop pass.
            self._tok_inflight = False
            self._held[0] = payload
            return
        tr = self.tracer
        if tr.enabled:
            tr.emit(self.sim.now, ctx.rank, "token.hop",
                    (dst, WHITE, self._round, 0))
        yield from self._send(ctx, dst, TOKEN, payload=payload)

    def _forward_token_safra(self, ctx: UpcContext) -> Generator:
        """Idle non-zero rank: contribute colour + deficit, pass it on."""
        rank = ctx.rank
        rnd, colour, deficit = self._held[rank]
        self._held[rank] = None
        self._tok_seen_round[rank] = rnd
        token = self.tokens[rank]
        out = BLACK if token.colour == BLACK else colour
        deficit += self._wsent[rank] - self._wrecv[rank]
        token.colour = WHITE
        self.stats[rank].tokens_forwarded += 1
        dst = self._next_alive(rank)
        tr = self.tracer
        if tr.enabled:
            tr.emit(self.sim.now, rank, "token.hop",
                    (dst, out, rnd, deficit))
        yield from self._send(ctx, dst, TOKEN, payload=(rnd, out, deficit))

    def _evaluate_token(self, held) -> bool:
        """Rank 0, idle: did this returned token prove quiescence?"""
        if len(self.faults_rt.dead) != self._round_deaths:
            # A rank died mid-round.  If it forwarded this token first,
            # its deficit snapshot is inside the token AND in the dead
            # sum below (double-counted), and any blackening it suffered
            # after forwarding died with it.  Void the round; the next
            # one sees a stable dead set.
            return False
        _rnd, colour, deficit = held
        deficit += self._wsent[0] - self._wrecv[0]
        for dead in self.faults_rt.dead:
            # Dead ranks never forward the token; their deficit (work
            # they sent that is still in flight) is settled here.
            deficit += self._wsent[dead] - self._wrecv[dead]
        return colour == WHITE and self.tokens[0].colour == WHITE \
            and deficit == 0

    def _safra_duties(self, ctx: UpcContext) -> Generator:
        """Safra ring duties of an idle rank (faulted runs): pass on a
        held token; rank 0 evaluates a returned one, launches a round
        when none is out, and relaunches one lost to a drop or a death
        after ``ring_timeout`` of silence.  Returns what
        :meth:`_token_duties` returns."""
        rank = ctx.rank
        if rank != 0:
            if self._held[rank] is None:
                return None
            yield from self._forward_token_safra(ctx)
            return "sent"
        held = self._held[0]
        if held is not None:
            self._held[0] = None
            if self._evaluate_token(held):
                yield from self._broadcast_term(ctx)
                return "term"
        elif self._tok_inflight:
            rt = self.faults_rt
            if ctx.now - self._tok_launched < rt.plan.ring_timeout:
                return None
            # The token was dropped or died with a rank.
            rt.counters.token_relaunches += 1
            tr = self.tracer
            if tr.enabled:
                tr.emit(self.sim.now, rank, "recover.token_relaunch",
                        (self._round,))
            self._tok_inflight = False
        yield from self._launch_token(ctx)
        return "sent"

    def on_thread_death(self, rank: int) -> None:
        """Drain the corpse's mailbox: orphaned WORK is counted received
        (balancing the sender's deficit) and lost (accounting)."""
        rt = self.faults_rt
        pending = self.world._pending[rank]
        for _, _, msg in pending:
            if msg.tag == WORK:
                self._wrecv[rank] += 1
                self.in_flight_nodes -= len(msg.payload)
                rt.account_lost(msg.payload)
        pending.clear()

    def on_msg_to_dead(self, msg) -> None:
        """WORK posted to an already-dead thief: settle deficit + loss."""
        if msg.tag == WORK:
            self._wrecv[msg.dst] += 1
            self.in_flight_nodes -= len(msg.payload)
            self.faults_rt.account_lost(msg.payload)

    def thread_main(self, ctx: UpcContext) -> Generator:
        st = self.stats[ctx.rank]
        rank = ctx.rank
        work = self._fused(rank)["work"] is None
        phase = None
        while True:
            if not self.stacks[rank].is_empty:
                if work:  # the phase is bound at the first Working entry
                    phase = phase or self._compiled("work", rank)
                    # Compiled working phase: the C state machine runs
                    # the poll/visit/release/reacquire loop (identical
                    # yields and counters to working_phase) and bounces
                    # each probed message back here for the Python
                    # request/token handling.
                    msg = yield phase
                    while msg is not None:
                        reply = self._working_msg(ctx, msg)
                        if reply is not None:
                            yield from reply
                        msg = yield phase
                else:
                    yield from self.working_phase(ctx)
            st.barrier_entries += 1  # idle episodes (search + detection)
            done = yield from self.idle_phase(ctx)
            if done:
                break
            st.barrier_exits += 1
        yield from self.final_reduction(ctx)

    # -- compiled phase fusion (repro.fastpath) -------------------------------

    def _build_c_idle(self, rank: int):
        """Bind one ``repro.fastpath._core.IdlePhase`` to this rank's
        mailbox heap: the backoff polls between messages run in C, which
        only reads the heap head; every arrival bounces back to the
        Python idle iteration."""
        return self._core.IdlePhase(
            pending=self.world._pending[rank],
            backoff_min=SEARCH_BACKOFF_MIN,
            backoff_factor=SEARCH_BACKOFF_FACTOR,
            backoff_max=SEARCH_BACKOFF_MAX,
            slow=self.machine.contexts[rank]._slow,
        )
