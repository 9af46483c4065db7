"""Simulated two-sided message passing (the substrate for ``mpi-ws``).

Semantics follow the subset of MPI the Dinan et al. work-stealing code
uses: nonblocking sends, a polling probe, and a blocking receive.

* :meth:`MsgEndpoint.send` -- the sender pays a small injection
  overhead; the message arrives at ``now + transit``.
* :meth:`MsgEndpoint.iprobe` -- free local poll: returns a *delivered*
  message matching a tag filter, or ``None``.  In-flight messages
  (arrival time in the future) are invisible, so a victim polling right
  after a request was sent will not see it yet -- exactly the polling
  delay the paper's MPI comparison hinges on.
* :meth:`MsgEndpoint.recv` -- blocking receive: returns immediately if
  a matching message has been delivered, otherwise suspends until one
  arrives (no polling events are burned while waiting).
"""

from __future__ import annotations

import heapq
from typing import Any, Generator, Iterable, NamedTuple, Optional, Union

from repro.errors import SimulationError
from repro.pgas.machine import Machine, UpcContext
from repro.sim.engine import SimEvent, Timeout

__all__ = ["Message", "MsgWorld", "MsgEndpoint"]


class Message(NamedTuple):
    """One two-sided message in flight or delivered (immutable; a
    changed copy is ``msg._replace(arrival_time=...)``)."""

    src: int
    dst: int
    tag: str
    payload: Any
    nbytes: int
    send_time: float
    arrival_time: float


_tuple_new = tuple.__new__


def _tag_filter(tags: Union[None, str, Iterable[str]]) -> Optional[frozenset]:
    """None (any tag), one tag, or several; a ``frozenset`` as-is."""
    if tags is None or type(tags) is frozenset:
        return tags
    return frozenset((tags,) if isinstance(tags, str) else tags)


class MsgWorld:
    """Mailboxes + matching engine for all ranks of a machine."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.net = machine.net
        n = machine.n_threads
        # Per-rank min-heap of (arrival_time, seq, Message) not yet received.
        self._pending: list[list[tuple[float, int, Message]]] = [[] for _ in range(n)]
        # Per-rank blocked receivers: (tag_filter, event).
        self._waiters: list[list[tuple[Optional[frozenset], SimEvent]]] = [[] for _ in range(n)]
        self._seq = 0
        self.messages_sent = 0
        self.bytes_sent = 0
        # The injection charge on-node (half) and off: None when free.
        self._inject = tuple(Timeout(c) if c > 0 else None for c in
                             (self.net.msg_injection * 0.5,
                              self.net.msg_injection))

    def endpoint(self, ctx: UpcContext, stats=None) -> "MsgEndpoint":
        return MsgEndpoint(self, ctx, stats)

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _matches(tag: str, tag_filter: Optional[frozenset]) -> bool:
        return tag_filter is None or tag in tag_filter

    def _post(self, msg: Message) -> None:
        """Accept a freshly sent message, applying any fault plan.

        With faults configured, the runtime decides the message's fate:
        it may be dropped (never delivered), delayed (delivered with a
        pushed-back arrival time), duplicated (delivered twice), or
        discarded because the destination fail-stopped.  Fault-free
        and with no receiver blocked, it goes straight onto the heap.
        """
        self.messages_sent += 1
        self.bytes_sent += msg.nbytes
        faults = self.machine.faults
        if faults is not None:
            for delivery in faults.route_message(msg):
                self._deliver(delivery)
        elif self._waiters[msg.dst]:
            self._deliver(msg)
        else:
            seq = self._seq
            self._seq = seq + 1
            heapq.heappush(self._pending[msg.dst],
                           (msg.arrival_time, seq, msg))

    def _deliver(self, msg: Message) -> None:
        """Route a message to a blocked receiver or the mailbox heap."""
        waiters = self._waiters[msg.dst]
        for i, (tag_filter, ev) in enumerate(waiters):
            if self._matches(msg.tag, tag_filter):
                del waiters[i]
                ev.succeed(msg, delay=msg.arrival_time - self.sim.now)
                return
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._pending[msg.dst], (msg.arrival_time, seq, msg))

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


class MsgEndpoint:
    """Per-rank handle on the message world.  ``stats``, when given, is
    the rank's :class:`~repro.metrics.counters.ThreadStats`: each message
    it posts counts in ``msgs_sent``."""

    __slots__ = ("world", "ctx", "rank", "stats")

    def __init__(self, world: MsgWorld, ctx: UpcContext, stats=None) -> None:
        self.world = world
        self.ctx = ctx
        self.rank = ctx.rank
        self.stats = stats

    def send(self, dst: int, tag: str, payload: Any = None,
             nbytes: int = 64) -> Generator:
        """Nonblocking send; the caller pays only the injection overhead
        (half on-node).  One locality test prices it and the transit
        (``NetworkModel.message`` written out).  The message is posted
        and counted after the injection: a rank killed during it sent
        nothing."""
        rank = self.rank
        if dst == rank:
            raise SimulationError(f"T{rank} sending to itself")
        world = self.world
        net = world.net
        cpn = net.cores_per_node
        if rank // cpn == dst // cpn:
            inject = world._inject[0]
            transit = net.onnode_latency + nbytes / net.onnode_bandwidth
        else:
            inject = world._inject[1]
            transit = net.msg_latency + nbytes / net.msg_bandwidth
        if inject is not None:
            yield inject
        now = world.sim.now
        # tuple.__new__ is Message(...) without the Python-level __new__.
        world._post(_tuple_new(Message, (rank, dst, tag, payload, nbytes,
                                         now, now + transit)))
        if self.stats is not None:
            self.stats.msgs_sent += 1
        tr = self.ctx.machine.tracer
        if tr.enabled:
            tr.emit(now, rank, "msg.send", (dst, tag))

    def iprobe(self, tags: Union[None, str, Iterable[str]] = None
               ) -> Optional[Message]:
        """Nonblocking local poll for a delivered message (free).

        ``tags`` is one tag, several, or None for any.  Callers on the
        polling hot path pass a prebuilt ``frozenset`` of tags, which is
        used as-is.
        """
        world = self.world
        pending = world._pending[self.rank]
        if not pending or pending[0][0] > world.sim.now:
            return None
        if tags is None:
            return heapq.heappop(pending)[2]
        if type(tags) is not frozenset:
            tags = _tag_filter(tags)
        return world._take_delivered(self.rank, tags)

    def recv(self, tags: Union[None, str, Iterable[str]] = None) -> Generator:
        """Blocking receive: suspends until a matching message arrives.
        ``tags`` is read as in :meth:`iprobe`."""
        tag_filter = _tag_filter(tags)
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
