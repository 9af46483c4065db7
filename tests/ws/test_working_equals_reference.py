"""The one Working state executes the schedule of the four it replaced.

ISSUE 19 folded four hand-copied ``working_phase`` loops -- lock-based,
``upc-distmem``, ``mpi-ws``, ``ws-fencefree`` -- into
:meth:`AlgorithmBase.working_phase`, which reads what differs (poll
point, ``work_avail`` publish, own-stack lock, after-move hook) as
switches.  Every pinned schedule depends on the merged loop yielding,
counting and recording exactly what each copy did, so the parent
commit's four bodies live on below *verbatim* (with the two fence-free
helpers they called) and are swapped in per class for whole runs.  The
default run and the reference run must agree on events,
``repr(sim_time)``, nodes, every per-thread counter, every lock and
``work_avail`` counter, the fault ledgers, and the full record stream of
a traced run -- fault-free and faulted, polling and parked.

A line tracer scoped to the merged loop then proves the cells are not
vacuous: the lock bracket, the contended acquire, the re-check a thief
won, both kinds of poll point, the after-move hook and the generic
faulted transaction are each crossed.

ISSUE 20 did the same to the compiled side -- one ``WorkPhase`` in
``_core.c`` where two hand-copied state machines stood -- so the same
verbatim loops, run on the pure backend, are also the reference for the
default ``fastpath="fast"`` run of every fusable variant (skipped when
the extension is not built), with anti-vacuity read from counters the
C code itself maintains.
"""

import dataclasses
import inspect
import sys
from typing import Generator

import pytest

import repro.fastpath as fp
from repro import ALGORITHMS, TreeParams, WsConfig, run_experiment
from repro.faults.plan import parse_fault_spec
from repro.metrics.states import SEARCHING, WORKING
from repro.obs import TraceSink
from repro.pgas.machine import UpcContext
from repro.service import ArrivalProcess, ServiceConfig, run_service
from repro.sim.engine import SimEvent, Timeout
from repro.ws.algorithms.base import NO_WORK, AlgorithmBase
from repro.ws.algorithms.distmem import UpcDistMem
from repro.ws.algorithms.fencefree import WsFenceFree
from repro.ws.algorithms.lock_based import LockBasedAlgorithm
from repro.ws.algorithms.mpi_ws import REQUEST, MpiWorkStealing
from repro.ws.termination.token import BLACK

TREE = TreeParams.binomial(b0=64, m=2, q=0.48, seed=1)
SERVICE = ServiceConfig(arrivals=ArrivalProcess(rate=8e5), n_tasks=120,
                        queue_capacity=16, policy="shed-oldest",
                        deadline=150e-6, max_retries=2, seed=3)
VARIANTS = sorted(ALGORITHMS) + ["service-ws"]

#: Park mode admits fail-stop faults only; under polling each variant
#: gets the richest plan its fault catalog allows, so the stall-rolling
#: transactions and the stale-window draws behind every ``work_avail``
#: write are ordered by the comparison too.
KILLS = "kill=3@103us,kill=5@120us"
STALE = "stale=0.4,stale-window=60us"
LOCKED = "stall=0.2,stale=0.3,stale-window=60us,kill=3@103us"
POLL_PLANS = {
    "upc-sharedmem": LOCKED,
    "upc-term": LOCKED,
    "upc-term-rapdif": LOCKED,
    "service-ws": LOCKED,
    "upc-distmem": "stale=0.3,stale-window=60us," + KILLS,
    "upc-distmem-hier": "stale=0.3,stale-window=60us," + KILLS,
    "mpi-ws": "drop=0.05,dup=0.05,delay=0.1,kill=3@103us",
    "ws-fencefree": STALE,
    "tree-split": STALE,
}

_T0 = Timeout(0.0)

#: How often each reference body ran (anti-vacuity for the swap).
REFERENCE_USE = {"lock": 0, "distmem": 0, "mpi": 0, "fencefree": 0}


# -- the parent commit's loops, verbatim --------------------------------------

def reference_lock_based(self, ctx) -> Generator:
    """Deplete the local+shared stack, releasing surplus as we go."""
    rank = ctx.rank
    stack = self.stacks[rank]
    st = self.stats[rank]
    self.enter_state(ctx, WORKING)
    wa = self.work_avail[rank]
    wa.poke(stack.shared_chunks)
    # Idle-gate notes ride on the existing work_avail writes: with
    # the gate absent (poll mode) each is one is-not-None test, so
    # the canonical schedule is untouched.
    gate = self._gate
    if gate is not None:
        gate.note(rank, stack.shared_chunks)
    # Hot loop: aliases to the stack's in-place-mutated containers
    # plus the precomputed per-batch visit Timeouts.  On fault-free
    # runs the own-lock transactions of ``release``/``reacquire``
    # (and the stack moves and lock transitions inside them) are
    # inlined below -- identical yields, counters, and traces,
    # without a generator frame per lock transaction.  This is the
    # one hand-inlining the ledger pays for: calling the methods
    # instead costs 12-20% on the upc-term / upc-term-rapdif k=2
    # cells of fig4-pure (0.29-0.32 -> 0.33-0.36 ref_s; 6% on
    # upc-sharedmem k=2, 3% on the workload), over ROADMAP's
    # 10%-on-a-cell bar (docs/performance.md).  Faulted runs
    # take the method calls, which roll stalls and keep
    # pending/holder bookkeeping; the two are pinned bit-identical
    # by tests/ws/test_inlined_equals_generic.py.
    local = stack.local
    shared = stack.shared
    fast = self._fast
    vt = self._visit_timeouts_for(rank) if fast else None
    tn = self.t_node_of(rank)
    thresh = self._release_threshold
    chunk = self.cfg.chunk_size
    explore = self.explore_batch
    tr = self.tracer
    sim = self.sim
    if fast:
        lk, lock_to = self._own_lock[rank]
        fifo = lk.fifo
        queue = fifo._queue
    after_hook = self._after_release_hook
    while True:
        if not local:
            if shared:
                if not fast:
                    yield from self.reacquire(ctx)
                    continue
                # -- reacquire, inlined -----------------------------
                if lock_to is not None:
                    yield lock_to
                if not fifo.locked:
                    fifo.locked = True
                    fifo.acquisitions += 1
                    fifo._acquired_at = sim.now
                    yield _T0
                else:
                    ev = SimEvent(sim, fifo._ev_name)
                    fifo.contended_acquisitions += 1
                    queue.append(ev)
                    yield ev
                if tr.enabled:
                    tr.emit(sim.now, rank, "lock.acq", (lk.name,))
                if shared:  # re-check: a queued thief may have won
                    got = shared.pop()
                    local[0:0] = got
                    stack.reacquired_nodes += len(got)
                    wa.writes += 1
                    wa.value = len(shared)
                    if gate is not None:
                        gate.note(rank, len(shared))
                    st.reacquires += 1
                fifo.busy_time += sim.now - fifo._acquired_at
                if queue:
                    fifo.acquisitions += 1
                    fifo._acquired_at = sim.now
                    queue.pop(0).succeed()
                else:
                    fifo.locked = False
                if tr.enabled:
                    tr.emit(sim.now, rank, "lock.rel", (lk.name,))
                continue
            break
        n = explore(rank)
        if n:
            if vt is not None:
                yield vt[n]
            else:
                yield from ctx.compute(n * tn)
        while len(local) >= thresh:
            if not fast:
                yield from self.release(ctx)
                continue
            # -- release, inlined -----------------------------------
            if lock_to is not None:
                yield lock_to
            if not fifo.locked:
                fifo.locked = True
                fifo.acquisitions += 1
                fifo._acquired_at = sim.now
                yield _T0
            else:
                ev = SimEvent(sim, fifo._ev_name)
                fifo.contended_acquisitions += 1
                queue.append(ev)
                yield ev
            if tr.enabled:
                tr.emit(sim.now, rank, "lock.acq", (lk.name,))
            released = local[:chunk]
            del local[:chunk]
            shared.append(released)
            stack.released_nodes += chunk
            wa.writes += 1
            wa.value = len(shared)
            if gate is not None:
                gate.note(rank, len(shared))
            fifo.busy_time += sim.now - fifo._acquired_at
            if queue:
                fifo.acquisitions += 1
                fifo._acquired_at = sim.now
                queue.pop(0).succeed()
            else:
                fifo.locked = False
            if tr.enabled:
                tr.emit(sim.now, rank, "lock.rel", (lk.name,))
            st.releases += 1
            if tr.enabled:
                tr.emit(sim.now, rank, "release",
                        (len(shared),))
            if after_hook:
                yield from self.after_release(ctx)
    wa.poke(NO_WORK)
    if gate is not None:
        gate.note(rank, NO_WORK)
    self.enter_state(ctx, SEARCHING)


def reference_distmem(self, ctx: UpcContext) -> Generator:
    rank = ctx.rank
    stack = self.stacks[rank]
    st = self.stats[rank]
    self.enter_state(ctx, WORKING)
    wa = self.work_avail[rank]
    # The victim-side poll is a local read of our own request slot:
    # test it inline so the (overwhelmingly common) no-request case
    # costs one attribute read instead of a generator round trip.
    req_slot = self.request[rank]
    wa.poke(stack.shared_chunks)
    # Idle-gate notes ride on the existing work_avail writes (one
    # is-not-None test each in poll mode; see LockBasedAlgorithm).
    gate = self._gate
    if gate is not None:
        gate.note(rank, stack.shared_chunks)
    local = stack.local
    shared = stack.shared
    vt = self._visit_timeouts_for(rank) if self._fast else None
    tn = self.t_node_of(rank)
    thresh = self._release_threshold
    chunk = self.cfg.chunk_size
    explore = self.explore_batch
    while True:
        if req_slot.value is not None:
            yield from self.service_request(ctx)
        if not local:
            if shared:
                # Owner-only move, no lock needed (Sect. 3.3.3);
                # SplitStack.reacquire inlined (same counters).
                got = shared.pop()
                local[0:0] = got
                stack.reacquired_nodes += len(got)
                wa.poke(len(shared))
                if gate is not None:
                    gate.note(rank, len(shared))
                st.reacquires += 1
                continue
            break
        n = explore(rank)
        if n:
            if vt is not None:
                yield vt[n]
            else:
                yield from ctx.compute(n * tn)
        while len(local) >= thresh:
            # SplitStack.release inlined (len(local) >= thresh >=
            # chunk makes its size guard redundant here).
            released = local[:chunk]
            del local[:chunk]
            shared.append(released)
            stack.released_nodes += chunk
            wa.poke(len(shared))
            if gate is not None:
                gate.note(rank, len(shared))
            st.releases += 1
    wa.poke(NO_WORK)
    if gate is not None:
        gate.note(rank, NO_WORK)
    # Deny any request that raced our transition to idle.
    if req_slot.value is not None:
        yield from self.service_request(ctx)
    self.enter_state(ctx, SEARCHING)


def reference_mpi_ws(self, ctx: UpcContext) -> Generator:
    rank = ctx.rank
    stack = self.stacks[rank]
    st = self.stats[rank]
    ep = self.endpoints[rank]
    self.enter_state(ctx, WORKING)
    iprobe = ep.iprobe
    poll_tags = self._poll_tags
    local = stack.local
    shared = stack.shared
    vt = self._visit_timeouts_for(rank) if self._fast else None
    tn = self.t_node_of(rank)
    thresh = self._release_threshold
    chunk = self.cfg.chunk_size
    explore = self.explore_batch
    while True:
        # Poll for steal requests and tokens (the MPI polling point).
        while (msg := iprobe(tags=poll_tags)) is not None:
            if msg.tag == REQUEST:
                yield from self._serve_request(ctx, msg.src,
                                               seq=msg.payload)
            elif self.faulty:
                # Hold (or discard a stale copy of) the ring token;
                # it is evaluated/forwarded once this thread idles.
                self._accept_token(rank, msg.payload)
            else:
                # Busy: hold the token until idle.  Rank 0 receiving
                # the token while busy invalidates the round.
                colour = BLACK if rank == 0 else msg.payload
                self.tokens[rank].on_token(colour)
        if not local:
            if shared:
                # SplitStack.reacquire inlined (owner-only stack).
                got = shared.pop()
                local[0:0] = got
                stack.reacquired_nodes += len(got)
                st.reacquires += 1
                continue
            break
        n = explore(rank)
        if n:
            if vt is not None:
                yield vt[n]
            else:
                yield from ctx.compute(n * tn)
        while len(local) >= thresh:
            # SplitStack.release inlined (size guard redundant:
            # len(local) >= thresh >= chunk).
            released = local[:chunk]
            del local[:chunk]
            shared.append(released)
            stack.released_nodes += chunk
            st.releases += 1
    self.enter_state(ctx, SEARCHING)


def reference_fencefree(self, ctx) -> Generator:
    """Deplete local+shared with plain-store releases/reacquires."""
    rank = ctx.rank
    stack = self.stacks[rank]
    self.enter_state(ctx, WORKING)
    wa = self.work_avail[rank]
    wa.poke(stack.shared_chunks)
    gate = self._gate
    if gate is not None:
        gate.note(rank, stack.shared_chunks)
    local = stack.local
    shared = stack.shared
    thresh = self._release_threshold
    explore = self.explore_batch
    tn = self.t_node_of(rank)
    vt = self._visit_timeouts_for(rank) if self._fast else None
    while True:
        if not local:
            if shared:
                self._reacquire_ff(rank)
                continue
            break
        n = explore(rank)
        if n:
            if vt is not None:
                yield vt[n]
            else:
                yield from ctx.compute(n * tn)
        while len(local) >= thresh:
            self._release_ff(rank)
    wa.poke(NO_WORK)
    if gate is not None:
        gate.note(rank, NO_WORK)
    self.enter_state(ctx, SEARCHING)


def _release_ff(self, rank: int) -> None:
    """Owner put: append a chunk to the era log and bump ``tail``.

    Plain local-memory stores (``tail`` is homed here, so the write
    is free in the UPC cost model) -- the whole point of the
    design is that the owner never pays a lock round trip.
    """
    stack = self.stacks[rank]
    stack.release(self.cfg.chunk_size)
    era = self._era[rank]
    idx = len(era)
    era.append(stack.shared[-1])
    self._claimed[rank].append(False)
    self._live[rank].append(idx)
    self.tails[rank].poke(idx + 1)
    self.work_avail[rank].poke(stack.shared_chunks)
    if self._gate is not None:
        self._gate.note(rank, stack.shared_chunks)
    self.stats[rank].releases += 1
    tr = self.tracer
    if tr.enabled:
        tr.emit(self.machine.sim.now, rank, "release",
                (stack.shared_chunks,))


def _reacquire_ff(self, rank: int) -> None:
    """Owner take: reclaim the newest live chunk by marking its era
    index claimed -- no lock, no tail decrement (indices are never
    reused).  A thief whose claim lands on this index afterwards
    duplicates it; that is the deliberate owner/thief race.
    """
    stack = self.stacks[rank]
    stack.reacquire()
    idx = self._live[rank].pop()
    self._claimed[rank][idx] = True
    self._advertise_head(rank)
    self.work_avail[rank].poke(stack.shared_chunks)
    if self._gate is not None:
        self._gate.note(rank, stack.shared_chunks)
    self.stats[rank].reacquires += 1


# -- harness --------------------------------------------------------------------

def counted(key, phase):
    def wrapper(self, ctx):
        REFERENCE_USE[key] += 1
        return phase(self, ctx)
    return wrapper


@pytest.fixture
def reference_loops(monkeypatch):
    """Give each protocol class its parent-commit loop back."""
    for cls, key, phase in [
            (LockBasedAlgorithm, "lock", reference_lock_based),
            (UpcDistMem, "distmem", reference_distmem),
            (MpiWorkStealing, "mpi", reference_mpi_ws),
            (WsFenceFree, "fencefree", reference_fencefree)]:
        monkeypatch.setattr(cls, "working_phase", counted(key, phase))
    monkeypatch.setattr(WsFenceFree, "_release_ff", _release_ff,
                        raising=False)
    monkeypatch.setattr(WsFenceFree, "_reacquire_ff", _reacquire_ff,
                        raising=False)
    return REFERENCE_USE


class Spy(TraceSink):
    """A tracer that keeps the algorithm instance, for its lock and
    ``work_avail`` counters."""

    def attach_algorithm(self, algo):
        self.algo = algo


def plan_for(variant, idle, faulted):
    if not faulted:
        return None
    return parse_fault_spec(
        POLL_PLANS[variant] if idle == "poll" else KILLS, seed=0)


#: variant x k x idle x faulted; park admits fail-stop plans only, so
#: the two stale-only variants have no faulted park cell.
CELLS = [(variant, k, idle, faulted)
         for variant in VARIANTS for k in (2, 4)
         for idle in ("poll", "park") for faulted in (False, True)
         if not (faulted and idle == "park"
                 and POLL_PLANS[variant] == STALE)]


def run_with_algo(variant, chunk_size, idle, faults, traced,
                  fastpath="pure"):
    # The reference loops are Python; the merged-loop cells pin the
    # default run to the same backend so the comparison is loop against
    # loop, and the compiled leg asks for the other one.
    spy = Spy(enabled=traced)
    cfg = WsConfig(chunk_size=chunk_size, idle_strategy=idle)
    kw = dict(threads=8, config=cfg, faults=faults, tracer=spy,
              fastpath=fastpath)
    if variant == "service-ws":
        result = run_service(SERVICE, seed=1, **kw)
    else:
        result = run_experiment(variant, TREE, **kw)
    algo = spy.algo
    locks = [lk.fifo for name in ("stack_locks", "req_locks")
             for lk in getattr(algo, name, ())]
    return (
        result.engine_events,
        repr(result.sim_time),
        result.total_nodes,
        [(dataclasses.asdict(st) | {"timer": None}, st.timer.times,
          st.timer.transitions) for st in result.per_thread],
        [(f.acquisitions, f.contended_acquisitions, repr(f.busy_time))
         for f in locks],
        [slot.writes for slot in algo.work_avail],
        (result.lost_work, getattr(result, "dup_work", 0),
         result.fault_counters),
        spy.records,
    ), algo


def run(*cell, **kw):
    return run_with_algo(*cell, **kw)[0]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize(
    "variant, chunk_size, idle, faulted", CELLS,
    ids=[f"{v}-k{k}-{idle}-{'faulted' if f else 'clean'}"
         for v, k, idle, f in CELLS])
def test_merged_loop_executes_the_copies_schedule(
        variant, chunk_size, idle, faulted, traced, request):
    merged = run(variant, chunk_size, idle,
                 plan_for(variant, idle, faulted), traced)
    assert merged[2] > 0
    assert bool(merged[7]) == traced
    use = request.getfixturevalue("reference_loops")
    before = sum(use.values())
    reference = run(variant, chunk_size, idle,
                    plan_for(variant, idle, faulted), traced)
    assert sum(use.values()) > before or variant == "tree-split", \
        "the reference loop never ran"
    assert reference == merged


# -- the compiled Working state executes the copies' schedule too --------------

FUSABLE = ["upc-sharedmem", "upc-term", "upc-term-rapdif", "upc-distmem",
           "upc-distmem-hier", "mpi-ws", "service-ws"]


@pytest.mark.skipif(not fp.available(),
                    reason="compiled core not built on this host")
@pytest.mark.parametrize("chunk_size", [2, 4], ids=["k2", "k4"])
@pytest.mark.parametrize("variant", FUSABLE)
def test_compiled_phase_executes_the_copies_schedule(
        variant, chunk_size, monkeypatch, request):
    # a forced REPRO_FASTPATH=0 would make both legs the pure backend
    monkeypatch.delenv("REPRO_FASTPATH", raising=False)
    cell = (variant, chunk_size, "poll", None, False)
    compiled, algo = run_with_algo(*cell, fastpath="fast")
    use = request.getfixturevalue("reference_loops")
    before = sum(use.values())
    reference = run(*cell)
    assert sum(use.values()) > before, "the reference loop never ran"
    assert reference == compiled
    # Not pure against pure, and not a schedule that skips the blocks
    # the merge touched: every rank that worked did so inside its own
    # WorkPhase, chunks moved both ways, and each switch's C code ran.
    worked = {st.rank for st in algo.stats if st.nodes_visited}
    assert len(worked) > 1
    assert {rank for (binder, rank), ph in algo._c_phases.items()
            if binder == "_build_c_phase"
            and type(ph).__name__ == "WorkPhase"} >= worked
    total = {name: sum(getattr(st, name) for st in algo.stats)
             for name in ("releases", "reacquires", "requests_granted",
                          "msgs_sent")}
    assert total["releases"] > 0 and total["reacquires"] > 0
    if isinstance(algo, LockBasedAlgorithm):
        assert sum(lk.fifo.contended_acquisitions
                   for lk in algo.stack_locks) > 0
    else:
        assert total["requests_granted"] > 0
    if variant == "upc-sharedmem":
        assert algo.barrier.cancels > 0
    if variant == "mpi-ws":
        assert total["msgs_sent"] > 0


# -- anti-vacuity: the merged loop's branches are crossed ----------------------

#: Branch -> the source line of ``AlgorithmBase.working_phase`` that
#: only it executes.
MARKERS = {
    "lock_bracket": "yield _T0",
    "contended_acquire": "fifo.contended_acquisitions += 1",
    "recheck": "if releasing or shared:",
    "poll_slot": "if req_slot.value is not None:",
    "poll_mail": "reply = self._working_msg(ctx, msg)",
    "after_move": "hook(rank, releasing)",
    "after_release": "yield from after(ctx)",
    "generic_transaction": "yield from (self.release(ctx) if releasing",
}


def crossings(cells):
    """Run ``cells`` under a line tracer scoped to the merged loop and
    count how often each marked branch executed.  ``recheck`` counts
    only the passes where the thief won: a reacquire that found
    ``shared`` empty under the lock."""
    code = AlgorithmBase.working_phase.__code__
    lines, first = inspect.getsourcelines(AlgorithmBase.working_phase)
    by_line = {}
    for name, text in MARKERS.items():
        hits = [first + i for i, line in enumerate(lines)
                if line.strip().startswith(text)]
        assert len(hits) == 1, f"marker {name!r} matches lines {hits}"
        by_line[hits[0]] = name
    counts = dict.fromkeys(MARKERS, 0)

    def local(frame, event, arg):
        if event == "line":
            name = by_line.get(frame.f_lineno)
            if name == "poll_slot":
                counts[name] += frame.f_locals["req_slot"].value is not None
            elif name == "recheck":
                counts[name] += not (frame.f_locals["releasing"]
                                     or frame.f_locals["shared"])
            elif name is not None:
                counts[name] += 1
        return local

    def scoped(frame, event, arg):
        return local if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(scoped)
    try:
        for cell in cells:
            run(*cell)
    finally:
        sys.settrace(previous)
    return counts


def test_the_cells_cross_every_branch_of_the_merged_loop():
    faulted = [(v, 2, "poll", plan_for(v, "poll", True), False)
               for v in ("upc-sharedmem", "upc-distmem", "ws-fencefree")]
    clean = [(v, 2, idle, None, True)
             for v in VARIANTS for idle in ("poll", "park")]
    counts = crossings(clean + faulted)
    assert all(counts.values()), counts
