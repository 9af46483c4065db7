"""Unit tests for the three termination detectors."""

import pytest

from repro.net import NetworkModel
from repro.pgas import Machine
from repro.sim.engine import Timeout
from repro.ws.termination import (
    BLACK,
    WHITE,
    CancelableBarrier,
    StreamlinedBarrier,
    TokenState,
)


@pytest.fixture
def machine():
    net = NetworkModel(cores_per_node=1, remote_shared_ref=1.0,
                       lock_overhead=2.0, home_occupancy=0.1)
    return Machine(threads=4, net=net)


class TestCancelableBarrier:
    def test_all_enter_terminates(self, machine):
        barrier = CancelableBarrier(machine)
        outcomes = []

        def idle(ctx):
            done = yield from barrier.enter_and_wait(ctx)
            outcomes.append((ctx.rank, done))

        machine.spawn_all(idle)
        machine.run()
        assert sorted(outcomes) == [(r, True) for r in range(4)]
        assert barrier.terminated

    def test_cancel_releases_waiters(self, machine):
        barrier = CancelableBarrier(machine)
        log = []

        def idle(ctx):
            done = yield from barrier.enter_and_wait(ctx)
            log.append(("cancelled", ctx.rank, done))
            # Second entry: this time everyone comes, so it terminates.
            done = yield from barrier.enter_and_wait(ctx)
            log.append(("final", ctx.rank, done))

        def worker(ctx):
            yield from ctx.compute(10.0)
            yield from barrier.reset(ctx)  # release -> cancel the barrier
            yield from ctx.compute(10.0)
            done = yield from barrier.enter_and_wait(ctx)
            log.append(("worker", ctx.rank, done))

        for r in range(3):
            machine.sim.spawn(idle(machine.contexts[r]))
        machine.sim.spawn(worker(machine.contexts[3]))
        machine.run()
        cancelled = [e for e in log if e[0] == "cancelled"]
        assert len(cancelled) == 3
        assert all(not done for _, _, done in cancelled)
        finals = [e for e in log if e[0] in ("final", "worker")]
        assert len(finals) == 4
        assert all(done for _, _, done in finals)
        assert barrier.cancels == 1

    def test_count_returns_to_zero_consistency(self, machine):
        barrier = CancelableBarrier(machine)

        def idle(ctx):
            while True:
                done = yield from barrier.enter_and_wait(ctx)
                if done:
                    return

        def worker(ctx):
            for _ in range(3):
                yield from ctx.compute(5.0)
                yield from barrier.reset(ctx)
            done = yield from barrier.enter_and_wait(ctx)
            assert done

        for r in range(3):
            machine.sim.spawn(idle(machine.contexts[r]))
        machine.sim.spawn(worker(machine.contexts[3]))
        machine.run()  # would raise DeadlockError if any thread hung
        assert barrier.terminated
        # Waiters cancelled in the final round may decrement after the
        # termination flag is set, so count ends in [1, THREADS].
        assert 1 <= barrier.count <= machine.n_threads

    def test_reset_without_waiters_is_cheap_but_counted(self, machine):
        barrier = CancelableBarrier(machine)

        def worker(ctx):
            yield from barrier.reset(ctx)

        machine.sim.spawn(worker(machine.contexts[1]))
        machine.run()
        assert barrier.cancels == 1
        # The releasing worker paid the remote write to rank 0's flag.
        assert machine.now == pytest.approx(1.0)


class TestStreamlinedBarrier:
    def test_last_enterer_detected(self, machine):
        barrier = StreamlinedBarrier(machine)
        lasts = []

        def idle(ctx):
            yield from ctx.compute(float(ctx.rank))
            last = yield from barrier.enter(ctx)
            lasts.append((ctx.rank, last))
            if last:
                yield from barrier.announce(ctx)

        machine.spawn_all(idle)
        machine.run()
        assert lasts.count((3, True)) == 1
        assert sum(1 for _, last in lasts if last) == 1
        assert barrier.terminated

    def test_leave_reopens_barrier(self, machine):
        barrier = StreamlinedBarrier(machine)
        order = []

        def enter_leave_enter(ctx):
            last = yield from barrier.enter(ctx)
            order.append(("first", last))
            yield from barrier.leave(ctx)
            last = yield from barrier.enter(ctx)
            order.append(("second", last))

        def other(ctx):
            yield from ctx.compute(100.0)
            last = yield from barrier.enter(ctx)
            order.append(("other", last))

        machine.sim.spawn(enter_leave_enter(machine.contexts[0]))
        for r in (1, 2):
            machine.sim.spawn(other(machine.contexts[r]))

        def fourth(ctx):
            yield from ctx.compute(200.0)
            last = yield from barrier.enter(ctx)
            order.append(("fourth", last))

        machine.sim.spawn(fourth(machine.contexts[3]))
        machine.run()
        assert barrier.count == 4
        assert [e for e in order if e[1]] == [("fourth", True)]

    def test_announce_charges_tree_broadcast(self, machine):
        barrier = StreamlinedBarrier(machine)

        def solo(ctx):
            yield from barrier.announce(ctx)

        machine.sim.spawn(solo(machine.contexts[0]))
        machine.run()
        # log2(4) = 2 levels x remote ref (1.0) each.
        assert machine.now == pytest.approx(2.0)
        assert barrier.terminated


class TestTokenState:
    def test_ring_neighbour(self):
        t = TokenState(rank=3, n_threads=4)
        assert t.next_rank == 0

    def test_blacken_on_backward_work(self):
        t = TokenState(rank=5, n_threads=8)
        t.on_sent_work(6)
        assert t.colour == WHITE
        t.on_sent_work(2)
        assert t.colour == BLACK

    def test_forward_whitens_and_propagates_black(self):
        t = TokenState(rank=2, n_threads=4, colour=BLACK)
        t.on_token(WHITE)
        assert t.forward() == BLACK
        assert t.colour == WHITE
        assert t.holding is None

    def test_forward_passes_white_through_white_thread(self):
        t = TokenState(rank=1, n_threads=4)
        t.on_token(WHITE)
        assert t.forward() == WHITE

    def test_black_token_stays_black(self):
        t = TokenState(rank=1, n_threads=4)
        t.on_token(BLACK)
        assert t.forward() == BLACK

    def test_rank0_launch_and_success(self):
        t0 = TokenState(rank=0, n_threads=4)
        assert t0.launch() == WHITE
        assert t0.in_flight
        t0.on_token(WHITE)
        assert not t0.in_flight
        assert t0.round_succeeded()

    def test_rank0_failed_round_relaunch(self):
        t0 = TokenState(rank=0, n_threads=4)
        t0.launch()
        t0.on_token(BLACK)
        assert not t0.round_succeeded()
        assert t0.initiate() == WHITE
        assert t0.rounds == 2

    def test_rank0_blackened_self_fails_round(self):
        t0 = TokenState(rank=0, n_threads=4)
        t0.launch()
        t0.colour = BLACK  # e.g. recorded busy at receipt
        t0.on_token(WHITE)
        assert not t0.round_succeeded()

    def test_full_quiet_ring_round(self):
        """Simulate a full quiet round by hand: all white, idle."""
        n = 5
        states = [TokenState(rank=r, n_threads=n) for r in range(n)]
        colour = states[0].launch()
        for r in range(1, n):
            states[r].on_token(colour)
            colour = states[r].forward()
        states[0].on_token(colour)
        assert states[0].round_succeeded()

    def test_ring_round_with_backward_transfer_fails(self):
        n = 5
        states = [TokenState(rank=r, n_threads=n) for r in range(n)]
        colour = states[0].launch()
        states[3].on_sent_work(1)  # T3 sent work backwards mid-round
        for r in range(1, n):
            states[r].on_token(colour)
            colour = states[r].forward()
        states[0].on_token(colour)
        assert not states[0].round_succeeded()


def test_the_service_policy_is_the_one_the_dispatch_assumes():
    from repro.ws.termination.strategies import NoTermination
    assert NoTermination.park_capable
    assert not NoTermination.persist_while_working
