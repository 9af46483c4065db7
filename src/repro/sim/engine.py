"""Deterministic discrete-event simulation kernel.

The kernel is deliberately small: a time-ordered event heap, one-shot
events, and generator-based processes.  Processes are Python generators
that ``yield`` awaitables; the engine resumes them when the awaitable
fires.  Determinism is guaranteed by tie-breaking simultaneous events
with a monotonically increasing sequence number, so two runs with the
same configuration produce identical traces.

Awaitables a process may yield -- exactly these classes, not
subclasses of them:

* :class:`Timeout` -- resume after a simulated delay.
* :class:`SimEvent` -- resume when another process fires the event
  (the event returned by :meth:`repro.sim.resources.FifoLock.acquire`
  is one).
* A compiled phase object of :mod:`repro.fastpath` (compiled run loop
  only).

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def proc(name, delay):
...     yield Timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.spawn(proc("b", 2.0))
>>> _ = sim.spawn(proc("a", 1.0))
>>> sim.run()
2.0
>>> log
[(1.0, 'a'), (2.0, 'b')]
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import ConfigError, DeadlockError, EventLimitExceeded, \
    SimulationError
from repro.sim.equeue import BucketQueue

__all__ = ["SimEvent", "Timeout", "Process", "Simulator"]

# A process body is a generator that yields awaitables and receives the
# fired event's value back from ``yield``.
ProcessBody = Generator[Any, Any, Any]


class SimEvent:
    """A one-shot event that processes can wait on.

    An event is *fired* at most once via :meth:`succeed`.  All waiters
    are resumed at the firing time in the order they registered (plus
    any per-waiter stagger the firer requested, see ``stagger`` -- used
    to model serialization at a contended home node without simulating
    individual spin iterations).
    """

    __slots__ = ("sim", "name", "fired", "scheduled", "value", "_waiters")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.fired = False
        self.scheduled = False
        self.value: Any = None
        self._waiters: list[Process] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else f"{len(self._waiters)} waiters"
        return f"<SimEvent {self.name or id(self)} {state}>"

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)

    def succeed(self, value: Any = None, delay: float = 0.0,
                stagger: float = 0.0) -> None:
        """Fire the event ``delay`` from now, resuming every waiter.

        The event transitions to ``fired`` only when the delay elapses,
        so a process may ``succeed(delay=d)`` and then itself (or any
        other process) wait on the event and be resumed at the fire
        time, not immediately.

        Parameters
        ----------
        value:
            Sent into each waiting process as the result of its ``yield``.
        delay:
            Simulated time between now and the firing.
        stagger:
            Extra serial delay between consecutive waiter wake-ups,
            modelling contention when many threads spin on one flag.
        """
        if self.fired or self.scheduled:
            raise SimulationError(f"event {self.name!r} fired twice")
        if delay == 0.0:
            self._fire(value, stagger)
        else:
            # A plain (event, value, stagger) record instead of a lambda
            # closure: the run loop recognises the tuple payload on a
            # process-less entry and calls _fire itself.  _schedule
            # rejects a negative delay before the event is marked.
            self.sim._schedule(delay, None, (self, value, stagger))
            self.scheduled = True

    def _fire(self, value: Any, stagger: float) -> None:
        self.fired = True
        self.scheduled = False
        self.value = value
        for i, proc in enumerate(self._waiters):
            self.sim._schedule(i * stagger, proc, value)
        self._waiters.clear()


class Timeout:
    """Awaitable: resume the yielding process after ``delay`` sim-seconds."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None) -> None:
        if not delay >= 0:  # NaN too: a NaN time never compares
            raise SimulationError(f"negative timeout {delay!r}")
        self.delay = delay
        self.value = value


class Process:
    """A running generator, resumable by the engine.

    The ``done`` event fires with the generator's return value when the
    body finishes, so processes can be joined:  ``yield proc.done``.
    """

    __slots__ = ("sim", "body", "name", "done", "alive")

    def __init__(self, sim: "Simulator", body: ProcessBody, name: str = "") -> None:
        self.sim = sim
        self.body = body
        self.name = name or getattr(body, "__name__", "proc")
        self.done = SimEvent(sim, name=f"{self.name}.done")
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name} {'alive' if self.alive else 'done'}>"


class Simulator:
    """The discrete-event engine: clock, heap, and process bookkeeping."""

    def __init__(self, max_events: int = 50_000_000,
                 tie_break: Optional[Callable[[int], Any]] = None,
                 queue: str = "heap",
                 fastpath: Optional[str] = None) -> None:
        self.now: float = 0.0
        self.max_events = max_events
        self.events_processed = 0
        self._heap: list[tuple[float, Any, Process, Any]] = []
        #: Event-queue backend: ``"heap"`` (what ``"auto"``, every
        #: caller's default, means at any thread count) is the global
        #: heapq; ``"bucket"`` swaps in a calendar queue with identical
        #: dispatch order (see :mod:`repro.sim.equeue`), by explicit
        #: request only -- it keeps the compiled run loop off.
        if queue not in ("auto", "heap", "bucket"):
            raise ConfigError(
                f"queue must be 'auto', 'heap' or 'bucket', got {queue!r}")
        self.queue = "bucket" if queue == "bucket" else "heap"
        self._equeue: Optional[BucketQueue] = (
            BucketQueue() if queue == "bucket" else None)
        self._seq = 0
        self._live_processes = 0
        #: Optional schedule-exploration hook (``repro.check``): maps the
        #: monotone sequence number of each scheduled event to the heap
        #: sort key used to tie-break simultaneous events.  ``None`` (the
        #: default) keeps the FIFO ``_seq`` order; a policy is applied
        #: to every key :meth:`run` and :meth:`_schedule` mint (and
        #: keeps the compiled loop off).  A policy MUST be injective
        #: (include ``seq`` in the key) and return mutually comparable
        #: keys, or heap ordering breaks.
        self.tie_break = tie_break
        #: Optional :class:`repro.obs.sink.TraceSink` for engine-level
        #: events (interrupts).  Set by the owning machine when tracing
        #: is enabled; None costs one attribute test on those paths and
        #: never perturbs scheduling (tracers only append to a list).
        self.tracer = None
        #: Resolved execution backend ("fast"/"pure", see
        #: :mod:`repro.fastpath`).  ``_crun`` holds the compiled run
        #: loop when it can actually drive this simulator: the C loop
        #: mirrors :meth:`run` over the heap with FIFO keys only, so
        #: tie-break policies and the bucket queue stay in Python (a
        #: "fast" resolution still vectorizes tree expansion then).
        from repro.fastpath import resolve as _resolve_fastpath
        self.fastpath = _resolve_fastpath(fastpath)
        self._crun = None
        if (self.fastpath == "fast" and tie_break is None
                and self._equeue is None):
            from repro.fastpath import load_core
            self._crun = load_core().run

    # -- scheduling ------------------------------------------------------

    def _schedule(self, delay: float, proc: Optional[Process],
                  value: Any) -> None:
        """Queue ``proc``'s resumption with ``value`` after ``delay``.
        A ``None`` process marks an engine-side record: ``value`` is a
        bare callback or a delayed ``(event, value, stagger)`` fire."""
        if not delay >= 0:  # NaN too, as in Timeout
            raise SimulationError(f"negative delay {delay!r}")
        self._seq += 1
        tb = self.tie_break
        key = self._seq if tb is None else tb(self._seq)
        item = (self.now + delay, key, proc, value)
        if self._equeue is None:
            heapq.heappush(self._heap, item)
        else:
            self._equeue.push(item)

    def _call_at(self, delay: float, fn: Callable[[], None]) -> None:
        """Schedule a bare callback (used for delayed event firing)."""
        self._schedule(delay, None, fn)

    def spawn(self, body: ProcessBody, name: str = "", delay: float = 0.0) -> Process:
        """Register a generator as a process, starting after ``delay``."""
        proc = Process(self, body, name=name)
        self._live_processes += 1
        # Kick off with a scheduled first step; the sentinel None is what
        # a fresh generator must be sent.
        self._schedule(delay, proc, None)
        return proc

    def event(self, name: str = "") -> SimEvent:
        """Create a fresh one-shot event bound to this simulator."""
        return SimEvent(self, name=name)

    def interrupt(self, proc: Process, exc: BaseException) -> None:
        """Throw ``exc`` into ``proc`` at its current suspension point.

        The process body sees the exception rise out of its pending
        ``yield`` and may catch it to run (non-yielding) cleanup before
        returning; either way the process is dead afterwards and its
        ``done`` event fires.  Stale heap entries for the process are
        skipped by :meth:`run`.  This is the fail-stop primitive: the
        fault layer uses it to kill a UPC thread mid-protocol.
        """
        if not proc.alive:
            return
        if self.tracer is not None and self.tracer.enabled:
            name = proc.name
            rank = int(name[1:]) if name[:1] == "T" and name[1:].isdigit() else -1
            self.tracer.emit(self.now, rank, "sim.interrupt", (name,))
        value: Any = None
        try:
            proc.body.throw(exc)
        except StopIteration as stop:
            value = stop.value
        except BaseException as raised:
            if raised is not exc:
                raise
            # Body let the interrupt propagate: plain death, no value.
        else:
            raise SimulationError(
                f"process {proc.name!r} yielded while being interrupted"
            )
        proc.alive = False
        self._live_processes -= 1
        proc.done.succeed(value)

    # -- execution -------------------------------------------------------

    def _limit_error(self) -> EventLimitExceeded:
        return EventLimitExceeded(
            f"exceeded {self.max_events} events at t={self.now:.6f}; "
            "likely a livelocked protocol"
        )

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains (or sim-time ``until`` is reached).

        Returns the final simulation time.  Raises
        :class:`EventLimitExceeded` if the event budget would be
        exceeded (the budget is the number of events actually
        dispatched: with ``max_events=N`` exactly ``N`` events run and
        the ``N+1``-th raises), which in this package almost always
        indicates a livelocked protocol rather than a legitimately long
        run.

        This is the only Python dispatch loop, and the hottest loop in
        the repository: every simulated interaction of every run passes
        through it once, whatever the queue backend, tie-break policy
        or deadline.  The three are parameters, not copies: the queue
        is ``(queue, pop, push)`` -- ``heapq`` on the heap list or the
        unbound :class:`~repro.sim.equeue.BucketQueue` methods, which
        dispatch in the identical order -- ``until=None`` is an
        infinite deadline, and a policy maps each key as it is minted
        (the identity policy executes the canonical schedule exactly).
        The loop hoists all attribute lookups into locals, keeps the
        event counter in a local (synced back in ``finally``),
        dispatches the awaitable with exact-class checks (a subclass
        of an awaitable is refused like any other object: nothing in
        the package defines one, and the compiled loop reads the two
        classes' slots directly), and mints the queue record inline
        instead of calling :meth:`_schedule`.  With the compiled
        backend the same loop runs in C (heap queue and FIFO keys
        only).
        """
        tb = self.tie_break
        if self._crun is not None and tb is None:
            return self._crun(self, until)
        if self._equeue is None:
            queue, pop, push = self._heap, heapq.heappop, heapq.heappush
        else:
            queue, pop, push = (self._equeue, BucketQueue.pop,
                                BucketQueue.push)
        deadline = math.inf if until is None else until
        timeout_cls = Timeout
        event_cls = SimEvent
        n = self.events_processed
        limit = self.max_events
        try:
            while queue:
                item = pop(queue)
                time, _key, proc, value = item
                if time > deadline:
                    # Not consumed: push back (same tuple, same key) so
                    # a later run() continues cleanly.
                    push(queue, item)
                    self.now = until
                    return until
                if proc is not None:
                    if not proc.alive:
                        # Stale resumption of an interrupted process
                        # (its pending timeout / event wake-up outlived
                        # it); dropped before it can advance the clock
                        # and never counted.  Never reached without
                        # Simulator.interrupt: a process that finishes
                        # normally has no outstanding resumptions.
                        continue
                    self.now = time
                    if n >= limit:
                        raise self._limit_error()
                    n += 1
                    try:
                        awaited = proc.body.send(value)
                    except StopIteration as stop:
                        proc.alive = False
                        proc.done.succeed(stop.value)
                        self._live_processes -= 1
                        continue
                    cls = awaited.__class__
                    if cls is timeout_cls:
                        # Timeout validated delay >= 0 at construction.
                        self._seq = seq = self._seq + 1
                        push(queue, (time + awaited.delay,
                                     seq if tb is None else tb(seq),
                                     proc, awaited.value))
                    elif cls is event_cls:
                        if awaited.fired:
                            # Late waiter on an already-fired event
                            # resumes immediately (at the current time;
                            # times are non-negative sums of validated
                            # delays, so ``time`` == ``time + 0.0``).
                            self._seq = seq = self._seq + 1
                            push(queue, (time,
                                         seq if tb is None else tb(seq),
                                         proc, awaited.value))
                        else:
                            awaited._waiters.append(proc)
                    else:
                        raise SimulationError(
                            f"process {proc.name!r} yielded "
                            f"non-awaitable {awaited!r}"
                        )
                else:
                    self.now = time
                    if n >= limit:
                        raise self._limit_error()
                    n += 1
                    if value.__class__ is tuple:
                        # Delayed event fire (see SimEvent.succeed).
                        ev, val, stagger = value
                        ev._fire(val, stagger)
                    else:
                        value()  # bare callback (_call_at)
        finally:
            self.events_processed = n
        return self.now

    def run_all(self, processes: Iterable[ProcessBody]) -> float:
        """Convenience: spawn every body, run to completion, return time."""
        for body in processes:
            self.spawn(body)
        return self.run()

    @property
    def fastpath_active(self) -> bool:
        """True when :meth:`run` dispatches through the compiled loop."""
        return self._crun is not None

    @property
    def queue_size(self) -> int:
        """Pending events in the queue (either backend).  Cheap enough
        to sample between ``run(until=)`` segments for peak tracking."""
        eq = self._equeue
        return len(self._heap) if eq is None else len(eq)

    def check_quiescent(self) -> None:
        """Raise :class:`DeadlockError` if live processes remain blocked."""
        if self._live_processes > 0 and self.queue_size == 0:
            raise DeadlockError(
                f"{self._live_processes} process(es) blocked forever "
                "with an empty event heap"
            )
