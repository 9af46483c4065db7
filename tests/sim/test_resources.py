"""Unit tests for FifoLock."""

import pytest

from repro.errors import SimulationError
from repro.sim import FifoLock, Simulator, Timeout


def test_lock_mutual_exclusion_and_fifo_order():
    sim = Simulator()
    lock = FifoLock(sim, "l")
    log = []

    def proc(name, hold):
        yield lock.acquire()
        log.append(("in", name, sim.now))
        yield Timeout(hold)
        log.append(("out", name, sim.now))
        lock.release()

    sim.spawn(proc("a", 2.0))
    sim.spawn(proc("b", 1.0))
    sim.spawn(proc("c", 1.0))
    sim.run()
    assert log == [
        ("in", "a", 0.0), ("out", "a", 2.0),
        ("in", "b", 2.0), ("out", "b", 3.0),
        ("in", "c", 3.0), ("out", "c", 4.0),
    ]


def test_lock_try_acquire():
    sim = Simulator()
    lock = FifoLock(sim, "l")
    assert lock.try_acquire()
    assert not lock.try_acquire()
    lock.release()
    assert lock.try_acquire()


def test_release_unlocked_raises():
    sim = Simulator()
    lock = FifoLock(sim, "l")
    with pytest.raises(SimulationError):
        lock.release()


def test_lock_statistics():
    sim = Simulator()
    lock = FifoLock(sim, "l")

    def proc(hold):
        yield lock.acquire()
        yield Timeout(hold)
        lock.release()

    sim.spawn(proc(1.0))
    sim.spawn(proc(2.0))
    sim.run()
    assert lock.acquisitions == 2
    assert lock.contended_acquisitions == 1
    assert lock.busy_time == pytest.approx(3.0)

