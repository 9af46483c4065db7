"""Tests for the PGAS machine and per-rank context."""

import pytest

from repro.errors import ConfigError
from repro.net import NetworkModel
from repro.obs import TraceSink
from repro.pgas import Machine


@pytest.fixture
def net():
    return NetworkModel(cores_per_node=2, remote_shared_ref=1.0,
                        local_shared_ref=0.1, rdma_latency=2.0,
                        rdma_bandwidth=100.0, lock_overhead=5.0)


def test_machine_requires_positive_threads(net):
    with pytest.raises(ConfigError):
        Machine(threads=0, net=net)


def test_unknown_queue_names_the_accepted_set(net):
    """``auto`` is accepted here, so the complaint must list it (the
    engine one level down knows only heap / bucket)."""
    with pytest.raises(ConfigError,
                       match=r"'auto', 'heap' or 'bucket', got 'calendar'"):
        Machine(threads=2, net=net, queue="calendar")


@pytest.mark.parametrize("threads", [2, 512, 1024])
def test_auto_queue_is_the_heap_at_every_size(net, threads):
    assert Machine(threads=threads, net=net).sim.queue == "heap"
    assert Machine(threads=threads, net=net, queue="auto").sim.queue == "heap"
    assert Machine(threads=threads, net=net,
                   queue="bucket").sim.queue == "bucket"


def test_shared_read_write_costs_and_values(net):
    m = Machine(threads=4, net=net)
    var = m.shared_var("x", home=3, init=10)
    observed = {}

    def reader(ctx):
        v = yield from ctx.shared_read(var)
        observed["value"] = v
        observed["time"] = ctx.now

    m.sim.spawn(reader(m.contexts[0]))
    m.run()
    assert observed["value"] == 10
    assert observed["time"] == pytest.approx(1.0)  # off-node remote ref


def test_home_access_is_free(net):
    m = Machine(threads=4, net=net)
    var = m.shared_var("x", home=1, init=5)

    def owner(ctx):
        v = yield from ctx.shared_read(var)
        assert ctx.now == 0.0
        assert v == 5
        yield from ctx.shared_write(var, 6)
        assert ctx.now == 0.0

    m.sim.spawn(owner(m.contexts[1]))
    m.run()
    assert var.value == 6


def test_local_read_write_assert_affinity(net):
    m = Machine(threads=2, net=net)
    var = m.shared_var("x", home=1, init=0)
    ctx0, ctx1 = m.contexts
    ctx1.local_write(var, 9)
    assert ctx1.local_read(var) == 9
    with pytest.raises(AssertionError):
        ctx0.local_read(var)


def test_write_lands_after_latency(net):
    """A remote write is visible only once the latency has elapsed."""
    m = Machine(threads=4, net=net)
    var = m.shared_var("x", home=2, init="old")
    samples = []

    def writer(ctx):
        yield from ctx.shared_write(var, "new")

    def sampler(ctx):
        samples.append((ctx.now, var.value))
        yield from ctx.compute(0.5)  # mid-flight: write (1.0) not landed
        samples.append((ctx.now, var.value))
        yield from ctx.compute(1.0)
        samples.append((ctx.now, var.value))

    m.sim.spawn(writer(m.contexts[0]))
    m.sim.spawn(sampler(m.contexts[2]))
    m.run()
    assert samples == [(0.0, "old"), (0.5, "old"), (1.5, "new")]


def test_memget_cost_scales(net):
    m = Machine(threads=4, net=net)
    times = []

    def getter(ctx):
        yield from ctx.memget(2, 100)
        times.append(ctx.now)

    m.sim.spawn(getter(m.contexts[0]))
    m.run()
    assert times[0] == pytest.approx(2.0 + 100 / 100.0)


def test_global_lock_remote_cost_and_exclusion(net):
    m = Machine(threads=4, net=net)
    lk = m.global_lock("l", home=0)
    log = []

    def contender(ctx, hold):
        yield from ctx.lock(lk)
        log.append(("in", ctx.rank, ctx.now))
        yield from ctx.compute(hold)
        yield from ctx.unlock(lk)

    m.sim.spawn(contender(m.contexts[2], 10.0))
    m.sim.spawn(contender(m.contexts[3], 10.0))
    m.run()
    # Both pay remote lock cost (1.0 ref + 5.0 overhead) before queueing.
    assert log[0] == ("in", 2, pytest.approx(6.0))
    # Rank 3 queues until rank 2's unlock (at 16.0 + 1.0 unlock ref).
    assert log[1][1] == 3
    assert log[1][2] >= 16.0


def test_try_lock(net):
    m = Machine(threads=2, net=net)
    lk = m.global_lock("l", home=0)
    results = []

    def attempt(ctx):
        got = yield from ctx.try_lock(lk)
        results.append(got)
        got2 = yield from ctx.try_lock(lk)
        results.append(got2)

    m.sim.spawn(attempt(m.contexts[1]))
    m.run()
    assert results == [True, False]


def test_lock_array_homes(net):
    m = Machine(threads=4, net=net)
    locks = m.lock_array("stack_lock")
    assert [lk.home for lk in locks] == [0, 1, 2, 3]


def test_shared_array_default_affinity(net):
    m = Machine(threads=4, net=net)
    arr = m.shared_array("work_avail", init=0)
    assert len(arr) == 4
    assert [v.home for v in arr] == [0, 1, 2, 3]
    assert arr.values() == [0, 0, 0, 0]


def test_spawn_all_runs_every_rank(net):
    m = Machine(threads=8, net=net)
    ranks = []

    def main(ctx):
        yield from ctx.compute(0.001 * (ctx.rank + 1))
        ranks.append(ctx.rank)

    m.spawn_all(main)
    m.run()
    assert ranks == list(range(8))


def test_tracer_integration(net):
    tracer = TraceSink()
    m = Machine(threads=2, net=net, tracer=tracer)

    def main(ctx):
        ctx.trace("visit", (ctx.rank + 1,))
        yield from ctx.compute(0.0)

    m.spawn_all(main)
    m.run()
    assert [(r.rank, r.args) for r in tracer.records] \
        == [(0, {"n": 1}), (1, {"n": 2})]


def test_context_rngs_differ_across_ranks(net):
    m = Machine(threads=3, net=net, seed=42)
    orders = [ctx.rng.shuffled(list(range(10))) for ctx in m.contexts]
    assert orders[0] != orders[1] or orders[1] != orders[2]


def test_machine_determinism(net):
    def run_once():
        m = Machine(threads=4, net=net, seed=1)
        log = []

        def main(ctx):
            yield from ctx.compute(0.1 * ctx.rng.randrange(10))
            log.append((ctx.now, ctx.rank))

        m.spawn_all(main)
        m.run()
        return log

    assert run_once() == run_once()
