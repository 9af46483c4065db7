"""The flat cost model, tuple messages and frameless send/steal paths
execute the schedule of the code they replaced.

What a compiled Figure-4 run still runs in Python was taken out of call
chains and generator layers: ``NetworkModel``'s cost methods became one
locality test over precomputed constants, a ``Message`` became a
``NamedTuple``, ``MsgEndpoint.send`` prices injection and transit from
one locality test and counts ``msgs_sent`` itself, mpi-ws's ``_send``
and ``_serve_request`` and ``AlgorithmBase.try_steal`` hand back the
generator to delegate to instead of wrapping it, and each variant's
``_claim`` charges a lone shared reference as an inline ``Timeout``.
Every pinned schedule depends on those paths charging, posting,
counting and recording exactly what the parent commit's did, so the
parent's bodies live on below *verbatim* and are swapped in for whole
runs.  Default and reference runs must agree on engine events,
``repr(sim_time)``, nodes, every per-thread counter and state timer,
lock and ``work_avail`` counters, the fault ledgers and, traced, the
whole record stream: mpi-ws and the lock-based, distmem and fence-free
variants, polling and parked, clean and under each fault class the
variant takes, on both backends.

The anti-vacuity tests then show the runs cross what the change
touched: drops, duplicates, delays, lock stalls, slowed ranks, and a
rank killed during a send's injection (so ``msgs_sent`` is compared
where a message was paid for but never posted).
"""

import dataclasses
import heapq
import itertools
from dataclasses import dataclass, replace
from typing import Any, Generator, Iterable, Optional

import pytest

import repro.fastpath as fp
from repro import TreeParams, run_experiment
from repro.errors import SimulationError
from repro.faults.plan import parse_fault_spec
from repro.faults.runtime import FaultRuntime
from repro.msg.comm import MsgEndpoint, MsgWorld
from repro.net.model import NODE_DESC_BYTES, NetworkModel
from repro.obs import TraceSink
from repro.pgas.machine import Machine, UpcContext
from repro.sim.engine import SimEvent, Simulator, Timeout
from repro.ws.algorithms.base import AlgorithmBase, flatten
from repro.ws.algorithms.distmem import _GAVE_UP, UpcDistMem
from repro.ws.algorithms.fencefree import WsFenceFree
from repro.ws.algorithms.lock_based import LockBasedAlgorithm
from repro.ws.algorithms.mpi_ws import (_CTRL_BYTES, NOWORK, REQUEST, TOKEN,
                                        WORK, MpiWorkStealing)
from repro.ws.config import WsConfig
from repro.ws.termination.token import TokenState
from tests.net.test_model import ParentCosts

TREE = TreeParams.binomial(b0=64, m=2, q=0.48, seed=1)

#: How often the reference send / claim bodies ran (anti-vacuity).
REFERENCE_USE = {"send": 0, "claim": 0}


# -- the parent commit's message layer, verbatim --------------------------------

@dataclass(frozen=True)
class Message:
    """One two-sided message in flight or delivered."""

    src: int
    dst: int
    tag: str
    payload: Any
    nbytes: int
    send_time: float
    arrival_time: float


def world_init(self, machine: Machine) -> None:
    self.machine = machine
    self.sim = machine.sim
    self.net = machine.net
    n = machine.n_threads
    # Per-rank min-heap of (arrival_time, seq, Message) not yet received.
    self._pending: list[list[tuple[float, int, Message]]] = [[] for _ in range(n)]
    # Per-rank blocked receivers: (tag_filter, event).
    self._waiters: list[list[tuple[Optional[frozenset], SimEvent]]] = [[] for _ in range(n)]
    self._seq = itertools.count()
    self.messages_sent = 0
    self.bytes_sent = 0


def _post(self, msg: Message) -> None:
    """Accept a freshly sent message, applying any fault plan."""
    self.messages_sent += 1
    self.bytes_sent += msg.nbytes
    faults = self.machine.faults
    if faults is not None:
        for delivery in faults.route_message(msg):
            self._deliver(delivery)
        return
    self._deliver(msg)


def _deliver(self, msg: Message) -> None:
    """Route a message to a blocked receiver or the mailbox heap."""
    waiters = self._waiters[msg.dst]
    for i, (tag_filter, ev) in enumerate(waiters):
        if self._matches(msg.tag, tag_filter):
            del waiters[i]
            ev.succeed(msg, delay=msg.arrival_time - self.sim.now)
            return
    heapq.heappush(self._pending[msg.dst],
                   (msg.arrival_time, next(self._seq), msg))


def _take_delivered(self, rank: int,
                    tag_filter: Optional[frozenset]) -> Optional[Message]:
    """Pop the earliest delivered message matching the filter."""
    now = self.sim.now
    pending = self._pending[rank]
    # Fast path: heap head not yet arrived -> nothing visible.
    if not pending or pending[0][0] > now:
        return None
    if tag_filter is None:
        return heapq.heappop(pending)[2]
    # Scan delivered prefix for a tag match, preserving order.
    skipped: list[tuple[float, int, Message]] = []
    found: Optional[Message] = None
    while pending and pending[0][0] <= now:
        entry = heapq.heappop(pending)
        if self._matches(entry[2].tag, tag_filter):
            found = entry[2]
            break
        skipped.append(entry)
    for entry in skipped:
        heapq.heappush(pending, entry)
    return found


def send(self, dst: int, tag: str, payload: Any = None,
         nbytes: int = 64) -> Generator:
    """Nonblocking send; the caller pays only the injection overhead."""
    REFERENCE_USE["send"] += 1
    if dst == self.rank:
        raise SimulationError(f"T{self.rank} sending to itself")
    net = self.world.net
    overhead = net.msg_injection if not net.same_node(self.rank, dst) \
        else net.msg_injection * 0.5
    if overhead > 0:
        yield Timeout(overhead)
    now = self.world.sim.now
    transit = net.message(self.rank, dst, nbytes)
    msg = Message(src=self.rank, dst=dst, tag=tag, payload=payload,
                  nbytes=nbytes, send_time=now, arrival_time=now + transit)
    self.world._post(msg)
    tr = self.ctx.machine.tracer
    if tr.enabled:
        tr.emit(now, self.rank, "msg.send", (dst, tag))


def iprobe(self, tags: Optional[Iterable[str]] = None) -> Optional[Message]:
    """Nonblocking local poll for a delivered message (free)."""
    if tags is None or type(tags) is frozenset:
        tag_filter = tags
    else:
        tag_filter = frozenset(tags)
    return self.world._take_delivered(self.rank, tag_filter)


def recv(self, tags: Optional[Iterable[str]] = None) -> Generator:
    """Blocking receive: suspends until a matching message arrives."""
    tag_filter = frozenset(tags) if tags is not None else None
    msg = self.world._take_delivered(self.rank, tag_filter)
    if msg is not None:
        tr = self.ctx.machine.tracer
        if tr.enabled:
            tr.emit(self.world.sim.now, self.rank, "msg.recv",
                    (msg.src, msg.tag))
        return msg
    # If a matching message is in flight, wait for its arrival; else
    # register as a blocked receiver.
    pending = self.world._pending[self.rank]
    in_flight = [e for e in pending
                 if self.world._matches(e[2].tag, tag_filter)]
    ev = self.world.sim.event(name=f"T{self.rank}.recv")
    if in_flight:
        earliest = min(in_flight)
        pending.remove(earliest)
        heapq.heapify(pending)
        ev.succeed(earliest[2], delay=earliest[0] - self.world.sim.now)
    else:
        self.world._waiters[self.rank].append((tag_filter, ev))
    msg = yield ev
    tr = self.ctx.machine.tracer
    if tr.enabled:
        tr.emit(self.world.sim.now, self.rank, "msg.recv",
                (msg.src, msg.tag))
    return msg


def route_message(self, msg):
    """Decide a posted message's fate; returns deliveries (0..2)."""
    tr = self.machine.tracer
    if msg.dst in self.dead:
        self.counters.msgs_to_dead += 1
        if tr.enabled:
            tr.emit(self.machine.sim.now, msg.dst, "fault.msg_to_dead",
                    (msg.src, msg.tag))
        self.algo.on_msg_to_dead(msg)
        return []
    plan = self.plan
    drop_rate = plan.msg_drop_rate
    delay_rate = plan.msg_delay_rate
    dup_rate = plan.msg_dup_rate
    if self._rate_storms:
        drop_rate = self._rate("drop", drop_rate)
        delay_rate = self._rate("delay", delay_rate)
        dup_rate = self._rate("dup", dup_rate)
    if (drop_rate > 0.0
            and msg.tag in self.algo.droppable_tags
            and self._drop.chance(drop_rate)):
        self.counters.msgs_dropped += 1
        if tr.enabled:
            tr.emit(self.machine.sim.now, msg.dst, "fault.drop",
                    (msg.src, msg.tag))
        return []
    if (delay_rate > 0.0
            and self._delay.chance(delay_rate)):
        extra = self._delay.uniform(0.0, plan.msg_delay_max)
        msg = replace(msg, arrival_time=msg.arrival_time + extra)
        self.counters.msgs_delayed += 1
        if tr.enabled:
            tr.emit(self.machine.sim.now, msg.dst, "fault.delay",
                    (msg.src, msg.tag, extra))
    out = [msg]
    if (dup_rate > 0.0
            and msg.tag in self.algo.duplicable_tags
            and self._dup.chance(dup_rate)):
        late = self._dup.uniform(0.0, plan.msg_delay_max)
        out.append(replace(msg, arrival_time=msg.arrival_time + late))
        self.counters.msgs_duplicated += 1
        if tr.enabled:
            tr.emit(self.machine.sim.now, msg.dst, "fault.dup",
                    (msg.src, msg.tag))
    return out


# -- the parent commit's mpi-ws send side, verbatim -----------------------------

def mpi_setup(self) -> None:
    self.world = MsgWorld(self.machine)
    self.endpoints = [self.world.endpoint(c) for c in self.machine.contexts]
    #: Prebuilt tag filter for the per-batch poll (iprobe uses a
    #: frozenset argument as-is instead of rebuilding one per call).
    self._poll_tags = frozenset((REQUEST, TOKEN))
    self.tokens = [TokenState(r, self.machine.n_threads)
                   for r in range(self.machine.n_threads)]
    self.terminated = False
    self.faulty = self.faults_rt is not None
    if self.faulty:
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


def _send(self, ctx: UpcContext, dst: int, tag: str, payload=None,
          nbytes: int = _CTRL_BYTES) -> Generator:
    yield from self.endpoints[ctx.rank].send(dst, tag, payload, nbytes)
    self.stats[ctx.rank].msgs_sent += 1


def _serve_request(self, ctx: UpcContext, thief: int,
                   seq=None) -> Generator:
    """Answer a steal request: one chunk if the shared region has
    one, else a denial."""
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
            return
        seen[thief] = seq
    if stack.shared_chunks > 0:
        chunk = stack.steal_chunks(1)[0]
        self.in_flight_nodes += len(chunk)
        st.requests_granted += 1
        if rt is None:
            self.tokens[rank].on_sent_work(thief)
            yield from self._send(ctx, thief, WORK, payload=chunk,
                                  nbytes=len(chunk) * NODE_DESC_BYTES + _CTRL_BYTES)
        else:
            # Journal the chunk across the send: if this thread is
            # killed mid-send the nodes exist only in this frame.
            # The deficit increment lands after the post, atomically
            # with it (no yield in between).
            rt.begin_transfer(rank, chunk)
            yield from self._send(ctx, thief, WORK, payload=chunk,
                                  nbytes=len(chunk) * NODE_DESC_BYTES + _CTRL_BYTES)
            rt.end_transfer(rank)
            self._wsent[rank] += 1
        if tr.enabled:
            tr.emit(self.sim.now, rank, "service", (thief, 1))
    else:
        st.requests_denied += 1
        if tr.enabled:
            tr.emit(self.sim.now, rank, "steal.deny", (thief,))
        yield from self._send(ctx, thief, NOWORK, payload=seq)


# -- the parent commit's steal path, verbatim -----------------------------------

def try_steal(self, ctx: UpcContext, victim: int) -> Generator:
    """Figure 1's Stealing state, the only copy."""
    REFERENCE_USE["claim"] += 1
    rank = ctx.rank
    st = self.stats[rank]
    tr = self.tracer
    st.steal_attempts += 1
    if tr.enabled:
        tr.emit(self.sim.now, rank, "steal.req", (victim,))
    ok = yield from self._claim(ctx, victim)
    if ok and self._dup_ranks is not None and rank in self._dup_ranks:
        st.steal_attempts += 1
        if tr.enabled:
            tr.emit(self.sim.now, rank, "steal.req", (victim, 1))
        yield from self._claim(ctx, victim)
    return ok


def lock_claim(self, ctx, victim: int) -> Generator:
    """Lock the victim's stack, reserve chunk(s), transfer outside
    the critical region (Sect. 3.1 'Work Stealing')."""
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


def service_request(self, ctx: UpcContext) -> Generator:
    """Poll the local request variable; service a pending request."""
    rank = ctx.rank
    slot = self.request[rank]
    thief = slot.value
    if thief is None:
        return
    stack = self.stacks[rank]
    st = self.stats[rank]
    rt = self.faults_rt
    if stack.shared_chunks > 0:
        take = self._steal_for(thief, stack.shared_chunks)
        chunks = stack.steal_chunks(take)
        nodes = flatten(chunks)
        self.in_flight_nodes += len(nodes)
        self._advertise(rank, stack.shared_chunks)
        st.requests_granted += 1
        if rt is not None:
            rt.begin_transfer(rank, nodes)
    else:
        chunks = nodes = []
        st.requests_denied += 1
        tr = self.tracer
        if tr.enabled:
            tr.emit(self.machine.sim.now, rank, "steal.deny", (thief,))
    cost = 2.0 * self.net.msg_injection
    if cost > 0:
        yield from ctx.compute(cost)
    slot.poke(None)  # local reset of the request variable
    ev = self.response_events[thief]
    self.response_events[thief] = None
    if rt is not None:
        if nodes:
            rt.end_transfer(rank)
        if ev is None:
            if nodes:
                self.in_flight_nodes -= len(nodes)
                rt.account_lost(nodes)
            return
        if nodes:
            rt.register_response(thief, nodes)
    ev.succeed(chunks, delay=self.net.shared_ref(rank, thief))
    tr = self.tracer
    if tr.enabled:
        tr.emit(self.machine.sim.now, rank, "service",
                (thief, len(chunks)))


def distmem_claim(self, ctx: UpcContext, victim: int) -> Generator:
    """Write our ID into the victim's request variable and await the
    response (Sect. 3.3.3)."""
    rank = ctx.rank
    tr = self.tracer
    lk = self.req_locks[victim]
    got = yield from ctx.try_lock(lk)
    if not got:
        if tr.enabled:
            tr.emit(self.machine.sim.now, rank, "steal.fail",
                    (victim, "busy"))
        return False
    # Read the request variable under its lock.
    yield from ctx.compute(self.net.shared_ref(rank, victim))
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
        self.machine.sim.spawn(self._give_up_watch(ev, rank, victim),
                               name=f"giveup.T{rank}")
    yield from ctx.compute(self.net.shared_ref(rank, victim))
    self.request[victim].poke(rank)
    if self._gate is not None:
        self._gate.wake(victim)
    yield from ctx.unlock(lk)
    if rt is None:
        chunks = yield ev
    else:
        while not (ev.fired or ev.scheduled):
            yield from self.service_request(ctx)
            if ev.fired or ev.scheduled:
                break
            yield Timeout(self.cfg.search_backoff_min)
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


def fencefree_claim(self, ctx, victim: int) -> Generator:
    """Fence-free claim: read ``tail``/``head``, plain-store
    ``head + 1``, take era chunk ``head``."""
    rank = ctx.rank
    tr = self.tracer
    sim = self.machine.sim
    head = self.heads[victim]
    tail = self.tails[victim]
    fast = self._fast
    ref = self.net.shared_ref(rank, victim)
    if ref > 0:
        yield from ctx.compute(2 * ref)
    now = ctx.now
    t = tail.value if fast else tail.remote_read(now, rank)
    h = head.value if fast else head.remote_read(now, rank)
    if h >= t:
        if tr.enabled:
            tr.emit(sim.now, rank, "steal.fail", (victim, "empty"))
        return False
    vstack = self.stacks[victim]
    dup = self._claimed[victim][h]
    if not dup:
        self._claimed[victim][h] = True
        live = self._live[victim]
        if live[0] != h:
            from repro.errors import ProtocolError
            raise ProtocolError(
                f"{self.name}: claim resolved to era index {h} but "
                f"oldest live chunk of T{victim} is {live[0]}"
            )
        del live[0]
        chunks = vstack.steal_chunks(1)
        nodes = flatten(chunks)
    else:
        nodes = list(self._era[victim][h])
        self._account_dup(rank, victim, h, nodes)
    self._advertise_head(victim)
    self.in_flight_nodes += len(nodes)
    rt = self.faults_rt
    if rt is not None:
        rt.begin_transfer(rank, nodes)
    if ref > 0:
        yield from ctx.compute(ref)
    yield from ctx.chunk_get(victim, len(nodes))
    if rt is not None:
        rt.end_transfer(rank)
    self._steal_landed(ctx, victim, nodes, 1, dup)
    return True


# -- harness --------------------------------------------------------------------

#: (class, attribute, parent body); ``_am_penalty`` and ``_grant`` are
#: names only one side has.
PARENT = [
    *((NetworkModel, name, ParentCosts.__dict__[name]) for name in (
        "node_of", "same_node", "_am_penalty", "shared_ref",
        "ref_cost_bounds", "one_sided", "message", "lock_cost",
        "chunk_transfer")),
    (MsgWorld, "__init__", world_init),
    (MsgWorld, "_post", _post),
    (MsgWorld, "_deliver", _deliver),
    (MsgWorld, "_take_delivered", _take_delivered),
    (MsgEndpoint, "send", send),
    (MsgEndpoint, "iprobe", iprobe),
    (MsgEndpoint, "recv", recv),
    (FaultRuntime, "route_message", route_message),
    (MpiWorkStealing, "setup", mpi_setup),
    (MpiWorkStealing, "_send", _send),
    (MpiWorkStealing, "_serve_request", _serve_request),
    (AlgorithmBase, "try_steal", try_steal),
    (LockBasedAlgorithm, "_claim", lock_claim),
    (UpcDistMem, "service_request", service_request),
    (UpcDistMem, "_claim", distmem_claim),
    (WsFenceFree, "_claim", fencefree_claim),
]


@pytest.fixture
def reference_paths(monkeypatch):
    """Give every touched class its parent-commit bodies back."""
    for cls, name, body in PARENT:
        monkeypatch.setattr(cls, name, body, raising=False)
    return REFERENCE_USE


class Spy(TraceSink):
    """A tracer that keeps the algorithm instance."""

    def attach_algorithm(self, algo):
        self.algo = algo


#: Rank 3 is killed inside a send's injection Timeout at this time, on
#: both backends and traced or not (``test_a_rank_is_killed_mid_send``).
MID_SEND_KILL = "kill=3@162us"

#: Fault class -> spec.  Park admits the fail-stop classes only.
PLANS = {
    "clean": None,
    "drop": "drop=0.1",
    "dup": "dup=0.1",
    "delay": "delay=0.2",
    "stall": "stall=0.2,stale=0.3,stale-window=60us",
    "stale": "stale=0.4,stale-window=60us",
    "kill": MID_SEND_KILL + ",kill=5@120us",
    "slow": "slow=2@3,slow=6@3",
}
FAILSTOP = ("clean", "kill", "slow")
#: Variant -> the fault classes it is run under (polling).
CLASSES = {
    "mpi-ws": ("clean", "drop", "dup", "delay", "kill", "slow"),
    "upc-sharedmem": ("clean", "stall", "kill", "slow"),
    "upc-term": ("clean", "stall", "kill", "slow"),
    "upc-term-rapdif": ("clean", "stall", "kill", "slow"),
    "upc-distmem": ("clean", "stale", "kill", "slow"),
    "ws-fencefree": ("clean", "stale"),
}

CELLS = [(variant, idle, faults, traced)
         for variant, classes in CLASSES.items()
         for idle in ("poll", "park")
         for faults in classes
         if idle == "poll" or faults in FAILSTOP
         for traced in (False, True)]
IDS = [f"{v}-{idle}-{faults}" + ("-traced" if traced else "")
       for v, idle, faults, traced in CELLS]


def run_with_algo(variant, idle, faults, traced, fastpath="pure"):
    spy = Spy(enabled=traced)
    spec = PLANS[faults]
    result = run_experiment(
        variant, TREE, threads=8, seed=0, fastpath=fastpath,
        config=WsConfig(chunk_size=2, idle_strategy=idle), tracer=spy,
        faults=spec and parse_fault_spec(spec, seed=0))
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


def check(cell, request, **kw):
    new = run(*cell, **kw)
    assert new[2] > 0
    assert bool(new[7]) == cell[3]
    use = request.getfixturevalue("reference_paths")
    before = dict(use)
    reference = run(*cell, **kw)
    key = "send" if cell[0] == "mpi-ws" else "claim"
    assert use[key] > before[key], f"the parent's {key} path never ran"
    assert reference == new


@pytest.mark.parametrize("cell", CELLS, ids=IDS)
def test_flat_paths_execute_the_parent_schedule(cell, request):
    check(cell, request)


@pytest.mark.skipif(not fp.available(),
                    reason="compiled core not built on this host")
@pytest.mark.parametrize("cell", CELLS, ids=IDS)
def test_flat_paths_keep_the_schedule_compiled(cell, request, monkeypatch):
    # a forced REPRO_FASTPATH=0 would make both legs the pure backend
    monkeypatch.delenv("REPRO_FASTPATH", raising=False)
    check(cell, request, fastpath="fast")


@pytest.mark.parametrize("variant", ["mpi-ws", "upc-term"])
def test_the_dup_steal_adversary_keeps_the_schedule(variant, request):
    """The re-raid (``_steal_twice``; mpi-ws's second REQUEST) too."""
    from repro.scenarios import parse_adversaries
    cfg = WsConfig(chunk_size=2, adversaries=parse_adversaries("dup@1,2", 8))

    def go():
        tracer = TraceSink(enabled=True)
        r = run_experiment(variant, TREE, threads=8, seed=0, config=cfg,
                           fastpath="pure", tracer=tracer)
        return (r.engine_events, repr(r.sim_time),
                [dataclasses.asdict(st) | {"timer": None}
                 for st in r.per_thread], tracer.records)

    new = go()
    assert any(e.kind == "steal.req" and len(e.fields) == 2 for e in new[3])
    request.getfixturevalue("reference_paths")
    assert go() == new


# -- anti-vacuity: the runs cross what the change touched ----------------------

def test_the_message_faults_happen():
    totals = {}
    for faults in ("drop", "dup", "delay"):
        counters = run("mpi-ws", "poll", faults, False)[6][2]
        for key, value in dataclasses.asdict(counters).items():
            totals[key] = totals.get(key, 0) + value
    for key in ("msgs_dropped", "msgs_duplicated", "msgs_delayed",
                "dup_requests_suppressed", "stale_responses"):
        assert totals[key] > 0, (key, totals)


def test_the_lock_stalls_and_slowed_ranks_happen():
    stalled = run("upc-term", "poll", "stall", False)[6][2]
    assert stalled.lock_stalls > 0 and stalled.stale_windows > 0
    clean = run("upc-term", "poll", "clean", False)
    slowed = run("upc-term", "poll", "slow", False)
    assert slowed[1] != clean[1]  # the slowed ranks' charges moved time


@pytest.mark.parametrize("fastpath", [
    "pure", pytest.param("fast", marks=pytest.mark.skipif(
        not fp.available(), reason="compiled core not built on this host"))])
def test_a_rank_is_killed_mid_send(fastpath, monkeypatch):
    """Rank 3 dies inside ``MsgEndpoint.send``'s injection Timeout:
    charged for a message it never posted, which ``msgs_sent`` must not
    count (the cells above compare it with the parent's)."""
    monkeypatch.delenv("REPRO_FASTPATH", raising=False)
    where = {}
    interrupt = Simulator.interrupt

    def spying(sim, proc, exc):
        frames, gen = [], proc.body
        while gen is not None:
            frames.append(gen.gi_code.co_name)
            gen = gen.gi_yieldfrom
        where[proc.name] = frames
        return interrupt(sim, proc, exc)

    monkeypatch.setattr(Simulator, "interrupt", spying)
    _, algo = run_with_algo("mpi-ws", "poll", "kill", False,
                            fastpath=fastpath)
    assert where["T3"][-1] == "send", where
    assert algo.stats[3].msgs_sent > 0
