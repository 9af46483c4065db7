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
import itertools
from dataclasses import dataclass
from typing import Any, Generator, Iterable, Optional

from repro.errors import SimulationError
from repro.pgas.machine import Machine, UpcContext
from repro.sim.engine import SimEvent, Timeout

__all__ = ["Message", "MsgWorld", "MsgEndpoint"]


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
        self._seq = itertools.count()
        self.messages_sent = 0
        self.bytes_sent = 0

    def endpoint(self, ctx: UpcContext) -> "MsgEndpoint":
        return MsgEndpoint(self, ctx)

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _matches(tag: str, tag_filter: Optional[frozenset]) -> bool:
        return tag_filter is None or tag in tag_filter

    def _post(self, msg: Message) -> None:
        """Accept a freshly sent message, applying any fault plan.

        With faults configured, the runtime decides the message's fate:
        it may be dropped (never delivered), delayed (delivered with a
        pushed-back arrival time), duplicated (delivered twice), or
        discarded because the destination fail-stopped.
        """
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


class MsgEndpoint:
    """Per-rank handle on the message world."""

    __slots__ = ("world", "ctx", "rank")

    def __init__(self, world: MsgWorld, ctx: UpcContext) -> None:
        self.world = world
        self.ctx = ctx
        self.rank = ctx.rank

    def send(self, dst: int, tag: str, payload: Any = None,
             nbytes: int = 64) -> Generator:
        """Nonblocking send; the caller pays only the injection overhead."""
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
        """Nonblocking local poll for a delivered message (free).

        Callers on the polling hot path pass a prebuilt ``frozenset`` of
        tags, which is used as-is.
        """
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
