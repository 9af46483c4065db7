"""The one mpi-ws idle loop executes the schedule of the three it replaced.

The merge folded ``idle_phase`` (polling, with the compiled wait),
``_idle_phase_park`` and ``_idle_phase_faulty`` into one
:meth:`MpiWorkStealing.idle_phase` -- drain, token duties, request or
timeout, wait -- reading the fault runtime, the idle gate and the
compiled wait as switches before its loop starts.  Every pinned
schedule depends on the merged loop sending, counting, recording and
yielding exactly what the copy it stands in for did, so the parent
commit's three loops and the helpers the merge changed or deleted live
on below *verbatim*, swapped in for whole runs.  Default and reference
runs must agree on events, ``repr(sim_time)``, nodes, every per-thread
counter and state timer, the fault ledgers and, traced, the whole
record stream -- polling and parked, clean and under every fault class
mpi-ws takes, on 1 to 64 threads, on both backends.

The anti-vacuity test then shows the branches the merge touched are
crossed: blocking receives, steal timeouts, token relaunches, stale
responses, suppressed duplicate requests and, on the compiled backend,
``IdlePhase`` waits.
"""

import dataclasses
import inspect
import sys
from typing import Generator

import pytest

import repro.fastpath as fp
from repro import TreeParams, run_experiment
from repro.faults.plan import parse_fault_spec
from repro.obs import TraceSink
from repro.pgas.machine import UpcContext
from repro.scenarios import parse_adversaries
from repro.ws.algorithms.mpi_ws import (NOWORK, REQUEST, TERM, TOKEN, WORK,
                                        MpiWorkStealing)
from repro.ws.config import WsConfig
from repro.ws.termination.token import BLACK, WHITE

TREE = TreeParams.binomial(b0=64, m=2, q=0.48, seed=1)

#: How often each parent loop ran (anti-vacuity for the swap).
REFERENCE_USE = {"poll": 0, "park": 0, "faulty": 0}


# -- the parent commit's loops and changed helpers, verbatim -------------------

def _forward_token(self, ctx: UpcContext) -> Generator:
    """Idle non-zero rank holding a token: pass it along the ring."""
    token = self.tokens[ctx.rank]
    colour = token.forward()
    self.stats[ctx.rank].tokens_forwarded += 1
    tr = self.tracer
    if tr.enabled:
        tr.emit(self.sim.now, ctx.rank, "token.hop",
                (token.next_rank, colour))
    yield from self._send(ctx, token.next_rank, TOKEN, payload=colour)


def _term_children(rank: int, n: int) -> list:
    """Binary-tree fan-out over ranks for the TERM broadcast."""
    kids = [2 * rank + 1, 2 * rank + 2]
    return [k for k in kids if k < n]


def _broadcast_term(self, ctx: UpcContext) -> Generator:
    """Rank 0 roots a binary TERM tree; receivers forward to their
    children, so the announcement costs O(log n) serial hops
    instead of n serial sends from rank 0."""
    self.quiescence_check()
    self.terminated = True
    for dst in self._term_children(ctx.rank, self.machine.n_threads):
        yield from self._send(ctx, dst, TERM)
    ctx.trace("mpi.term")


def _forward_term(self, ctx: UpcContext) -> Generator:
    for dst in self._term_children(ctx.rank, self.machine.n_threads):
        yield from self._send(ctx, dst, TERM)


def _idle_handle(self, ctx: UpcContext, msg) -> Generator:
    """Dispatch one message received while idle (fault-free).
    Returns ``"term"``, ``"work"``, ``"nowork"``, or None."""
    rank = ctx.rank
    tag = msg.tag
    tr = self.tracer
    if tag == TERM:
        yield from self._forward_term(ctx)
        return "term"
    if tag == REQUEST:
        self.stats[rank].requests_denied += 1
        if tr.enabled:
            tr.emit(self.sim.now, rank, "steal.deny",
                    (msg.src,))
        yield from self._send(ctx, msg.src, NOWORK)
        return None
    if tag == TOKEN:
        self.tokens[rank].on_token(msg.payload)
        return None
    if tag == WORK:
        self._steal_landed(ctx, msg.src, msg.payload, 1)
        return "work"
    if tr.enabled:
        tr.emit(self.sim.now, rank, "steal.fail",
                (msg.src, "denied"))
    return "nowork"


def _token_duties(self, ctx: UpcContext) -> Generator:
    """Dijkstra token duties of an idle rank (fault-free): evaluate
    or pass on a held token; rank 0 launches one when none is out.
    Returns ``"term"`` when rank 0 declared termination, ``"sent"``
    when a token went out, else None."""
    rank = ctx.rank
    token = self.tokens[rank]
    if token.holding is not None:
        if rank != 0:
            yield from self._forward_token(ctx)
            return "sent"
        if token.round_succeeded():
            yield from self._broadcast_term(ctx)
            return "term"
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


def _send_request(self, ctx: UpcContext) -> Generator:
    """Post a steal REQUEST to a random victim; returns its rank."""
    rank = ctx.rank
    st = self.stats[rank]
    victim = self.probe_orders[rank].one()
    st.steal_attempts += 1
    st.probes += 1
    tr = self.tracer
    if tr.enabled:
        tr.emit(self.sim.now, rank, "steal.req", (victim,))
    yield from self._send(ctx, victim, REQUEST)
    if self._dup_ranks is not None and rank in self._dup_ranks:
        # Duplicating-steal adversary: a second REQUEST on the
        # wire.  Fault-free the protocol is dup-safe by
        # construction -- the extra NOWORK just re-clears
        # ``outstanding``; an extra WORK is consumed by the next
        # idle episode.  (Faulted runs dedup by sequence, so the
        # adversary targets this path.)
        if tr.enabled:
            tr.emit(self.sim.now, rank, "steal.req",
                    (victim, 1))
        yield from self._send(ctx, victim, REQUEST)
    return victim


def idle_phase(self, ctx: UpcContext) -> Generator:
    """Search for work by messaging; handle tokens; detect TERM.

    Returns True on termination, False when work has been obtained.
    """
    if self.machine.n_threads == 1:
        # Alone: local exhaustion is global termination.  The TERM
        # tree has no children, so this only declares it.
        yield from self._broadcast_term(ctx)
        return True
    if self.faulty:
        return (yield from self._idle_phase_faulty(ctx))
    if self._gate is not None:
        return (yield from self._idle_phase_park(ctx))
    rank = ctx.rank
    ep = self.endpoints[rank]
    # Fused wait (same gate as the working phase): during an idle
    # wait the only observable change is a message landing in our
    # mailbox -- token and request state mutate only inside our own
    # iterations -- so the between-iteration backoff polls can run
    # in C against the mailbox heap alone.
    phase = (self._compiled(self._build_c_idle, rank) if self._fuse
             else None)
    outstanding: int | None = None
    backoff = self.cfg.search_backoff_min
    while True:
        progressed = False
        while (msg := ep.iprobe()) is not None:
            progressed = True
            status = yield from self._idle_handle(ctx, msg)
            if status == "term":
                return True
            if status == "work":
                return False
            if status == "nowork":
                outstanding = None
        duty = yield from self._token_duties(ctx)
        if duty == "term":
            return True
        if duty is not None:
            progressed = True
        # One outstanding steal request at a time.
        if outstanding is None:
            outstanding = yield from self._send_request(ctx)
            progressed = True
        if phase is not None:
            # C wait loop: the compute(backoff) events and the
            # empty-mailbox polls run compiled; control returns
            # here as soon as a delivered message is visible.
            if progressed:
                phase.reset()
            yield phase
        else:
            if progressed:
                backoff = self.cfg.search_backoff_min
            yield from ctx.compute(backoff)
            backoff = min(backoff * self.cfg.search_backoff_factor,
                          self.cfg.search_backoff_max)


def _idle_phase_park(self, ctx: UpcContext) -> Generator:
    """Event-driven idle loop (``idle_strategy="park"``).

    The two-sided protocol means an idle MPI rank can never go
    fully silent: it must answer steal requests, circulate the
    termination token, and keep its own REQUEST outstanding.  So
    "parking" here is a blocking :meth:`~repro.msg.comm.MsgEndpoint.recv`
    in place of the backoff poll loop -- the rank sleeps in the
    message layer's waiter registry (O(1) engine cost) and is woken
    by exactly the traffic it would otherwise poll for.  Deadlock-
    free: a blocked rank always has its REQUEST in flight, and the
    response is guaranteed fault-free (a working victim polls; an
    idle one is itself woken by the REQUEST).

    This is inherently O(messages), not O(active): the protocol has
    no one-sided probe an idle rank could skip, so idle ranks keep
    exchanging REQUEST/NOWORK pairs at the backoff cadence -- the
    paper's one-sided-vs-two-sided contrast, measurable in E11.

    One deviation from the polling loop: the request backoff decays
    to its cap and never resets on message progress, bounding a
    fully-idle machine's request traffic at ``1/backoff_max`` per
    rank.  (Polling resets it on every served message, which at
    4096 mostly-idle ranks would keep the floor cadence forever.)
    """
    ep = self.endpoints[ctx.rank]
    outstanding = None
    bmax = self.cfg.search_backoff_max
    bfactor = self.cfg.search_backoff_factor
    backoff = self.cfg.search_backoff_min
    while True:
        # Drain already-delivered traffic (free local polls); with
        # a REQUEST outstanding and nothing delivered, park: block
        # until the next message (response, request, token, or
        # TERM) instead of spinning on the backoff timer.
        msg = ep.iprobe()
        if msg is None and outstanding is not None:
            msg = yield from ep.recv()
        while msg is not None:
            status = yield from self._idle_handle(ctx, msg)
            if status == "term":
                return True
            if status == "work":
                return False
            if status == "nowork":
                outstanding = None
            msg = ep.iprobe()
        duty = yield from self._token_duties(ctx)
        if duty == "term":
            return True
        if outstanding is None:
            # Pace the next REQUEST *before* sending it, then loop
            # back to drain traffic that landed during the pace
            # before blocking on the response.
            yield from ctx.compute(backoff)
            backoff = min(backoff * bfactor, bmax)
            outstanding = yield from self._send_request(ctx)


def _pick_victim(self, rank: int):
    """A steal victim not currently suspected dead (None if all are)."""
    order = self.probe_orders[rank]
    for _ in range(self.machine.n_threads):
        victim = order.one()
        if not self.faults_rt.suspected(victim):
            return victim
    return None


def _broadcast_term_faulty(self, ctx: UpcContext) -> Generator:
    """Direct TERM to every live rank (the binary tree could route
    through a corpse); TERM rides the reliable channel."""
    self.quiescence_check()
    self.terminated = True
    for dst in range(1, self.machine.n_threads):
        if dst not in self.faults_rt.dead:
            yield from self._send(ctx, dst, TERM)
    ctx.trace("mpi.term")


def _idle_phase_faulty(self, ctx: UpcContext) -> Generator:
    """Fault-tolerant search + termination loop (see block comment)."""
    rank = ctx.rank
    st = self.stats[rank]
    ep = self.endpoints[rank]
    rt = self.faults_rt
    plan = rt.plan
    tr = self.tracer
    sim = self.sim
    outstanding = None  # (victim, seq, deadline)
    timeout = plan.steal_timeout
    backoff = self.cfg.search_backoff_min
    while True:
        progressed = False
        while (msg := ep.iprobe()) is not None:
            progressed = True
            if msg.tag == TERM:
                return True
            if msg.tag == REQUEST:
                yield from self._serve_request(ctx, msg.src,
                                               seq=msg.payload)
            elif msg.tag == TOKEN:
                self._accept_token(rank, msg.payload)
            elif msg.tag == WORK:
                # Accept work regardless of which transaction it
                # answers -- discarding a late grant would lose
                # nodes.  Receipt blackens this rank (Safra).
                self._wrecv[rank] += 1
                self.tokens[rank].colour = BLACK
                self._steal_landed(ctx, msg.src, msg.payload, 1)
                return False
            elif msg.tag == NOWORK:
                if outstanding is not None \
                        and msg.src == outstanding[0] \
                        and msg.payload == outstanding[1]:
                    if tr.enabled:
                        tr.emit(sim.now, rank, "steal.fail",
                                (msg.src, "denied"))
                    outstanding = None
                    timeout = plan.steal_timeout
                else:
                    rt.counters.stale_responses += 1
        # Token duties.
        if rank == 0:
            held = self._held[0]
            if held is not None:
                self._held[0] = None
                if self._evaluate_token(held):
                    yield from self._broadcast_term_faulty(ctx)
                    return True
                yield from self._launch_token(ctx)
                progressed = True
            elif not self._tok_inflight:
                yield from self._launch_token(ctx)
                progressed = True
            elif ctx.now - self._tok_launched >= plan.ring_timeout:
                # The token was dropped or died with a rank.
                rt.counters.token_relaunches += 1
                if tr.enabled:
                    tr.emit(sim.now, rank, "recover.token_relaunch",
                            (self._round,))
                self._tok_inflight = False
                yield from self._launch_token(ctx)
                progressed = True
        elif self._held[rank] is not None:
            yield from self._forward_token_faulty(ctx)
            progressed = True
        # One outstanding steal request, timed out + retried.
        if outstanding is None:
            victim = self._pick_victim(rank)
            if victim is not None:
                seq = self._req_seq[rank]
                self._req_seq[rank] += 1
                st.steal_attempts += 1
                st.probes += 1
                if tr.enabled:
                    tr.emit(sim.now, rank, "steal.req",
                            (victim,))
                yield from self._send(ctx, victim, REQUEST, payload=seq)
                outstanding = (victim, seq, ctx.now + timeout)
                progressed = True
        elif ctx.now >= outstanding[2] or rt.suspected(outstanding[0]):
            # No reply in time: the request or denial was dropped,
            # or the victim died.  Abandon the transaction; a late
            # denial is recognised by its stale sequence number.
            rt.counters.steal_timeouts += 1
            if tr.enabled:
                tr.emit(sim.now, rank, "steal.fail",
                        (outstanding[0], "timeout"))
                tr.emit(sim.now, rank, "recover.steal_timeout",
                        (outstanding[0],))
            outstanding = None
            timeout = rt.next_steal_timeout(timeout)
            progressed = True
        if progressed:
            backoff = self.cfg.search_backoff_min
        yield from ctx.compute(backoff)
        backoff = min(backoff * self.cfg.search_backoff_factor,
                      self.cfg.search_backoff_max)


# -- harness --------------------------------------------------------------------

def counted_idle(self, ctx):
    REFERENCE_USE["faulty" if self.faulty else
                  "park" if self._gate is not None else "poll"] += 1
    return idle_phase(self, ctx)


PARENT = {
    "_forward_token": _forward_token,
    "_term_children": staticmethod(_term_children),
    "_broadcast_term": _broadcast_term,
    "_forward_term": _forward_term,
    "_idle_handle": _idle_handle,
    "_token_duties": _token_duties,
    "_send_request": _send_request,
    "idle_phase": counted_idle,
    "_idle_phase_park": _idle_phase_park,
    "_pick_victim": _pick_victim,
    "_broadcast_term_faulty": _broadcast_term_faulty,
    "_idle_phase_faulty": _idle_phase_faulty,
}


@pytest.fixture
def reference_loops(monkeypatch):
    """Give mpi-ws its parent-commit idle loops back."""
    for name, fn in PARENT.items():
        monkeypatch.setattr(MpiWorkStealing, name, fn, raising=False)
    return REFERENCE_USE


class Spy(TraceSink):
    """A tracer that keeps the algorithm instance."""

    def attach_algorithm(self, algo):
        self.algo = algo


def plan(kind, threads):
    """The fault spec of one class, sized to the machine: a ring token
    crosses every rank per round, so at 64 ranks a 10 % drop rate loses
    nearly every round (the run never terminates) and a 20 % delay rate
    voids enough of them to run for minutes."""
    small = threads <= 8
    return {
        "clean": None,
        "drop": f"drop={0.1 if small else 0.01}",
        "dup": "dup=0.1",
        "delay": f"delay={0.2 if small else 0.05}",
        "kill": f"kill={threads - 1}@150us",
        "storm": f"storm(kill:{min(3, threads - 1)}@t=100us..300us)",
    }[kind]


def run_with_algo(idle, faults, threads, traced, fastpath="pure",
                  adversary=None):
    spy = Spy(enabled=traced)
    spec = plan(faults, threads)
    cfg = WsConfig(chunk_size=4, idle_strategy=idle,
                   adversaries=(parse_adversaries(adversary, threads)
                                if adversary else None))
    result = run_experiment(
        "mpi-ws", TREE, threads=threads, seed=0, fastpath=fastpath,
        config=cfg, tracer=spy,
        faults=spec and parse_fault_spec(spec, seed=0))
    return (
        result.engine_events,
        repr(result.sim_time),
        result.total_nodes,
        [(dataclasses.asdict(st) | {"timer": None}, st.timer.times,
          st.timer.transitions) for st in result.per_thread],
        (result.lost_work, result.fault_counters),
        spy.records,
    ), spy.algo


def run(*cell, **kw):
    return run_with_algo(*cell, **kw)[0]


FAULTS = ("clean", "drop", "dup", "delay", "kill", "storm")
#: Park admits fail-stop plans only.
PARK_FAULTS = ("clean", "kill", "storm")

#: (idle, fault class, threads, traced); a lone rank 0 cannot be
#: killed, and 64-thread cells run untraced only (time).
CELLS = [(idle, faults, threads, traced)
         for threads in (1, 2, 8, 64)
         for idle in ("poll", "park")
         for faults in (FAULTS if idle == "poll" else PARK_FAULTS)
         for traced in (False, True)
         if not (threads == 1 and faults in ("kill", "storm"))
         and not (threads == 64 and traced)]
IDS = [f"{idle}-{faults}-t{threads}" + ("-traced" if traced else "")
       for idle, faults, threads, traced in CELLS]

compiled = pytest.mark.skipif(not fp.available(),
                              reason="compiled core not built on this host")


def expected_loop(idle, faults):
    return ("poll" if faults == "clean" and idle == "poll" else
            "park" if faults == "clean" else "faulty")


def check(cell, request, adversary=None, **kw):
    merged = run(*cell, adversary=adversary, **kw)
    assert merged[2] > 0
    assert bool(merged[5]) == cell[3]
    use = request.getfixturevalue("reference_loops")
    loop = expected_loop(*cell[:2])
    before = use[loop]
    reference = run(*cell, adversary=adversary, **kw)
    assert use[loop] > before, f"the parent's {loop} loop never ran"
    assert reference == merged


@pytest.mark.parametrize("cell", CELLS, ids=IDS)
def test_merged_idle_loop_executes_the_parent_loops_schedule(cell, request):
    check(cell, request)


@pytest.mark.parametrize("idle", ["poll", "park"])
def test_the_dup_request_adversary_keeps_the_schedule(idle, request):
    check((idle, "clean", 8, False), request, adversary="dup@1,2")


@compiled
@pytest.mark.parametrize("cell", CELLS, ids=IDS)
def test_merged_idle_loop_keeps_the_schedule_compiled(
        cell, request, monkeypatch):
    # a forced REPRO_FASTPATH=0 would make both legs the pure backend
    monkeypatch.delenv("REPRO_FASTPATH", raising=False)
    check(cell, request, fastpath="fast")


# -- anti-vacuity: the branches the merge touched are crossed ------------------

#: Branch -> the source line of ``MpiWorkStealing.idle_phase`` that
#: only it executes.
MARKERS = {
    "blocking_recv": "msg = yield from ep.recv()",
    "idle_phase_wait": "yield phase",
}


def crossings(cells, **kw):
    """Run ``cells`` under a line tracer scoped to the merged loop;
    returns the marked branches' counts and the summed fault ledgers."""
    code = MpiWorkStealing.idle_phase.__code__
    lines, first = inspect.getsourcelines(MpiWorkStealing.idle_phase)
    by_line = {}
    for name, text in MARKERS.items():
        hits = [first + i for i, line in enumerate(lines)
                if line.strip().startswith(text)]
        assert len(hits) == 1, f"marker {name!r} matches lines {hits}"
        by_line[hits[0]] = name
    counts = dict.fromkeys(MARKERS, 0)

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in by_line:
            counts[by_line[frame.f_lineno]] += 1
        return local

    def scoped(frame, event, arg):
        return local if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(scoped)
    try:
        for cell in cells:
            fault_counters = run(*cell, **kw)[4][1]
            if fault_counters is not None:
                for key, value in dataclasses.asdict(fault_counters).items():
                    counts[key] = counts.get(key, 0) + value
    finally:
        sys.settrace(previous)
    return counts


def test_the_cells_cross_every_branch_of_the_merged_loop():
    counts = crossings([("park", "clean", 8, False),
                        ("poll", "drop", 8, False),
                        ("poll", "dup", 8, False)])
    for key in ("blocking_recv", "steal_timeouts", "token_relaunches",
                "stale_responses", "dup_requests_suppressed"):
        assert counts[key] > 0, (key, counts)
    assert counts["idle_phase_wait"] == 0  # pure: no compiled wait


@compiled
def test_the_compiled_cells_wait_in_the_idle_phase(monkeypatch):
    monkeypatch.delenv("REPRO_FASTPATH", raising=False)
    counts = crossings([("poll", "clean", 8, False)], fastpath="fast")
    assert counts["idle_phase_wait"] > 0, counts
