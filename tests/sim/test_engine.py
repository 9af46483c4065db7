"""Unit tests for the discrete-event engine."""

import pytest

from repro import fastpath
from repro.errors import DeadlockError, EventLimitExceeded, SimulationError
from repro.sim import SimEvent, Simulator, Timeout


def test_timeout_ordering():
    sim = Simulator()
    log = []

    def proc(name, delay):
        yield Timeout(delay)
        log.append((sim.now, name))

    sim.spawn(proc("b", 2.0))
    sim.spawn(proc("a", 1.0))
    sim.run()
    assert log == [(1.0, "a"), (2.0, "b")]


def test_simultaneous_events_fifo_by_spawn_order():
    sim = Simulator()
    log = []

    def proc(name):
        yield Timeout(1.0)
        log.append(name)

    for name in "abcd":
        sim.spawn(proc(name))
    sim.run()
    assert log == list("abcd")


def test_zero_delay_timeout_advances_nothing():
    sim = Simulator()
    times = []

    def proc():
        yield Timeout(0.0)
        times.append(sim.now)
        yield Timeout(0.0)
        times.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert times == [0.0, 0.0]


def test_negative_timeout_rejected():
    with pytest.raises(SimulationError):
        Timeout(-1.0)


def test_nan_timeout_rejected():
    """A NaN delay compares false both ways: queued, it would stall the
    heap order, so it is refused like a negative one."""
    with pytest.raises(SimulationError, match="negative timeout nan"):
        Timeout(float("nan"))


@pytest.mark.parametrize("delay", [-1.0, float("nan")])
def test_bad_schedule_delay_rejected(delay):
    sim = Simulator()
    with pytest.raises(SimulationError, match="negative delay"):
        sim.event("late").succeed(delay=delay)
    assert sim.queue_size == 0


def test_event_wakes_all_waiters():
    sim = Simulator()
    ev = sim.event("go")
    woken = []

    def waiter(i):
        value = yield ev
        woken.append((i, value, sim.now))

    def firer():
        yield Timeout(5.0)
        ev.succeed("val")

    for i in range(3):
        sim.spawn(waiter(i))
    sim.spawn(firer())
    sim.run()
    assert woken == [(0, "val", 5.0), (1, "val", 5.0), (2, "val", 5.0)]


def test_event_stagger_serializes_wakeups():
    sim = Simulator()
    ev = sim.event("go")
    times = []

    def waiter():
        yield ev
        times.append(sim.now)

    def firer():
        yield Timeout(1.0)
        ev.succeed(stagger=0.5)

    for _ in range(3):
        sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert times == [1.0, 1.5, 2.0]


def test_event_fired_twice_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_late_waiter_on_fired_event_resumes_immediately():
    sim = Simulator()
    ev = sim.event()
    log = []

    def early():
        yield Timeout(1.0)
        ev.succeed(42)

    def late():
        yield Timeout(3.0)
        v = yield ev
        log.append((sim.now, v))

    sim.spawn(early())
    sim.spawn(late())
    sim.run()
    assert log == [(3.0, 42)]


def test_process_done_event_carries_return_value():
    sim = Simulator()
    results = []

    def worker():
        yield Timeout(2.0)
        return "answer"

    def joiner(proc):
        v = yield proc.done
        results.append((sim.now, v))

    p = sim.spawn(worker())
    sim.spawn(joiner(p))
    sim.run()
    assert results == [(2.0, "answer")]


def test_run_until_pauses_and_resumes():
    sim = Simulator()
    log = []

    def proc():
        yield Timeout(1.0)
        log.append(sim.now)
        yield Timeout(9.0)
        log.append(sim.now)

    sim.spawn(proc())
    t = sim.run(until=5.0)
    assert t == 5.0
    assert log == [1.0]
    sim.run()
    assert log == [1.0, 10.0]


def test_yielding_garbage_raises():
    sim = Simulator()

    def proc():
        yield "not an awaitable"

    sim.spawn(proc())
    with pytest.raises(SimulationError):
        sim.run()


class Nap(Timeout):
    pass


class Flag(SimEvent):
    pass


@pytest.mark.parametrize("make", [lambda sim: Nap(1.0),
                                  lambda sim: Flag(sim, "flag")],
                         ids=["Timeout-subclass", "SimEvent-subclass"])
def test_awaitable_subclass_is_refused_alike_on_both_backends(
        make, monkeypatch):
    """The awaitable contract is exactly ``Timeout``, exactly
    ``SimEvent`` (or a compiled phase): a subclass is garbage like any
    other object, with one error text whichever loop dispatches it."""
    monkeypatch.delenv("REPRO_FASTPATH", raising=False)

    def refusal(backend):
        sim = Simulator(fastpath=backend)
        awaited = make(sim)

        def proc():
            yield awaited

        sim.spawn(proc(), name="napper")
        with pytest.raises(SimulationError) as exc:
            sim.run()
        return str(exc.value).replace(repr(awaited), "<awaited>")

    pure = refusal("pure")
    assert pure == "process 'napper' yielded non-awaitable <awaited>"
    if fastpath.available():
        assert refusal("fast") == pure


def test_event_limit_enforced():
    sim = Simulator(max_events=10)

    def spinner():
        while True:
            yield Timeout(1.0)

    sim.spawn(spinner())
    with pytest.raises(EventLimitExceeded):
        sim.run()


def test_run_until_multiple_segments():
    """Pause/resume across several deadlines, then drain to completion."""
    sim = Simulator()
    log = []

    def proc():
        for _ in range(4):
            yield Timeout(2.0)
            log.append(sim.now)

    sim.spawn(proc())
    assert sim.run(until=1.0) == 1.0
    assert log == []
    assert sim.run(until=3.0) == 3.0
    assert log == [2.0]
    # A deadline landing exactly on an event consumes that event.
    assert sim.run(until=4.0) == 4.0
    assert log == [2.0, 4.0]
    assert sim.run() == 8.0
    assert log == [2.0, 4.0, 6.0, 8.0]


def test_check_quiescent_ok_after_partial_run():
    """A paused run with pending wake-ups is not a deadlock."""
    sim = Simulator()

    def proc():
        yield Timeout(10.0)

    sim.spawn(proc())
    sim.run(until=5.0)
    sim.check_quiescent()  # live process, non-empty heap: fine
    sim.run()
    sim.check_quiescent()  # finished cleanly: fine


def test_deadlock_detection():
    sim = Simulator()
    ev = sim.event("never")

    def stuck():
        yield ev

    sim.spawn(stuck())
    sim.run()
    with pytest.raises(DeadlockError):
        sim.check_quiescent()


def test_spawn_with_delay():
    sim = Simulator()
    log = []

    def proc():
        log.append(sim.now)
        yield Timeout(0.0)

    sim.spawn(proc(), delay=7.0)
    sim.run()
    assert log == [7.0]


def test_run_all_convenience():
    sim = Simulator()
    counter = []

    def proc(i):
        yield Timeout(float(i))
        counter.append(i)

    t = sim.run_all(proc(i) for i in range(5))
    assert t == 4.0
    assert counter == [0, 1, 2, 3, 4]


def test_determinism_two_identical_runs():
    def build():
        sim = Simulator()
        log = []

        def proc(i):
            for rep in range(3):
                yield Timeout(0.5 * (i + 1))
                log.append((sim.now, i, rep))

        for i in range(4):
            sim.spawn(proc(i))
        sim.run()
        return log

    assert build() == build()
