"""Tests for the simulated two-sided message layer."""

import dataclasses

import pytest

import repro.fastpath as fp
from repro import TreeParams, WsConfig, run_experiment
from repro.errors import SimulationError, ThreadKilled
from repro.faults.plan import parse_fault_spec
from repro.metrics.counters import ThreadStats
from repro.msg import Message, MsgWorld
from repro.net import NetworkModel
from repro.pgas import Machine
from repro.sim.engine import Simulator


@pytest.fixture
def machine():
    net = NetworkModel(cores_per_node=1, msg_latency=2.0, msg_bandwidth=100.0,
                       msg_injection=0.25)
    return Machine(threads=4, net=net)


@pytest.fixture
def world(machine):
    return MsgWorld(machine)


def test_send_self_rejected(machine, world):
    ep = world.endpoint(machine.contexts[0])

    def body():
        yield from ep.send(0, "X")

    machine.sim.spawn(body())
    with pytest.raises(SimulationError):
        machine.run()


def test_blocking_recv_gets_message_at_arrival_time(machine, world):
    ep0 = world.endpoint(machine.contexts[0])
    ep1 = world.endpoint(machine.contexts[1])
    got = {}

    def sender(ctx):
        yield from ctx.compute(1.0)
        yield from ep0.send(1, "WORK", payload=[1, 2, 3], nbytes=100)

    def receiver(ctx):
        msg = yield from ep1.recv()
        got["msg"] = msg
        got["time"] = ctx.now

    machine.sim.spawn(sender(machine.contexts[0]))
    machine.sim.spawn(receiver(machine.contexts[1]))
    machine.run()
    # send at 1.0 + 0.25 injection; transit = 2.0 + 100/100 = 3.0
    assert got["time"] == pytest.approx(1.25 + 3.0)
    assert got["msg"].payload == [1, 2, 3]
    assert got["msg"].src == 0


def test_iprobe_invisible_until_arrival(machine, world):
    ep0 = world.endpoint(machine.contexts[0])
    ep1 = world.endpoint(machine.contexts[1])
    probes = []

    def sender(ctx):
        yield from ep0.send(1, "REQ", nbytes=0)

    def poller(ctx):
        yield from ctx.compute(1.0)
        probes.append((ctx.now, ep1.iprobe()))  # in flight (arrives 2.25)
        yield from ctx.compute(2.0)
        msg = ep1.iprobe()
        probes.append((ctx.now, msg.tag if msg else None))

    machine.sim.spawn(sender(machine.contexts[0]))
    machine.sim.spawn(poller(machine.contexts[1]))
    machine.run()
    assert probes[0] == (1.0, None)
    assert probes[1] == (3.0, "REQ")


def test_iprobe_tag_filter_preserves_other_messages(machine, world):
    ep0 = world.endpoint(machine.contexts[0])
    ep2 = world.endpoint(machine.contexts[2])
    seen = []

    def sender(ctx):
        yield from ep0.send(2, "A", nbytes=0)
        yield from ep0.send(2, "B", nbytes=0)

    def poller(ctx):
        yield from ctx.compute(10.0)
        msg_b = ep2.iprobe(tags=["B"])
        seen.append(msg_b.tag)
        assert ep2.iprobe(tags=["B"]) is None
        msg_a = ep2.iprobe(tags=["A"])
        seen.append(msg_a.tag)

    machine.sim.spawn(sender(machine.contexts[0]))
    machine.sim.spawn(poller(machine.contexts[2]))
    machine.run()
    assert seen == ["B", "A"]


def test_a_bare_string_is_one_tag(machine, world):
    """``iprobe("WORK")`` / ``recv("WORK")`` match the tag WORK, not
    the letters W, O, R, K."""
    ep0 = world.endpoint(machine.contexts[0])
    ep1 = world.endpoint(machine.contexts[1])
    got = []

    def sender(ctx):
        yield from ep0.send(1, "WORK", nbytes=0)
        yield from ep0.send(1, "W", nbytes=0)
        yield from ep0.send(1, "WORK", nbytes=0)

    def receiver(ctx):
        yield from ctx.compute(10.0)
        got.append(ep1.iprobe("WORK").tag)
        msg = yield from ep1.recv("WORK")
        got.append(msg.tag)
        assert ep1.iprobe("WORK") is None
        got.append(ep1.iprobe("W").tag)

    machine.sim.spawn(sender(machine.contexts[0]))
    machine.sim.spawn(receiver(machine.contexts[1]))
    machine.run()
    assert got == ["WORK", "WORK", "W"]


def test_a_blocked_recv_on_a_bare_string_wakes_on_that_tag(machine, world):
    ep0 = world.endpoint(machine.contexts[0])
    ep1 = world.endpoint(machine.contexts[1])
    got = {}

    def sender(ctx):
        yield from ctx.compute(1.0)
        yield from ep0.send(1, "WORK", nbytes=0)

    def receiver(ctx):
        msg = yield from ep1.recv("WORK")  # blocks before the send
        got["tag"], got["time"] = msg.tag, ctx.now

    machine.sim.spawn(sender(machine.contexts[0]))
    machine.sim.spawn(receiver(machine.contexts[1]))
    machine.run()
    assert got == {"tag": "WORK", "time": 1.0 + 0.25 + 2.0}


def test_a_message_is_a_named_tuple_and_replace_copies(machine, world):
    ep0 = world.endpoint(machine.contexts[0])
    ep1 = world.endpoint(machine.contexts[1])
    got = []

    def sender(ctx):
        yield from ep0.send(1, "X", payload=7, nbytes=100)

    def receiver(ctx):
        got.append((yield from ep1.recv()))

    machine.sim.spawn(sender(machine.contexts[0]))
    machine.sim.spawn(receiver(machine.contexts[1]))
    machine.run()
    [msg] = got
    assert type(msg) is Message and isinstance(msg, tuple)
    assert not dataclasses.is_dataclass(msg)
    assert msg == Message(src=0, dst=1, tag="X", payload=7, nbytes=100,
                          send_time=0.25, arrival_time=0.25 + 3.0)
    late = msg._replace(arrival_time=9.0)
    assert late.arrival_time == 9.0 and msg.arrival_time == 3.25


def test_an_endpoint_with_stats_counts_each_posted_message(machine, world):
    stats = ThreadStats(rank=0)
    ep0 = world.endpoint(machine.contexts[0], stats)

    def sender(ctx):
        yield from ep0.send(1, "X")
        yield from ep0.send(2, "Y")

    proc = machine.sim.spawn(sender(machine.contexts[0]))
    machine.sim.run(until=0.3)  # inside the second send's injection
    assert stats.msgs_sent == 1 and world.messages_sent == 1
    machine.sim.interrupt(proc, ThreadKilled("mid-send"))
    machine.run()
    assert stats.msgs_sent == 1 and world.messages_sent == 1


def test_recv_while_message_in_flight(machine, world):
    """recv() called between send and arrival waits until arrival."""
    ep0 = world.endpoint(machine.contexts[0])
    ep1 = world.endpoint(machine.contexts[1])
    times = {}

    def sender(ctx):
        yield from ep0.send(1, "X", nbytes=0)

    def receiver(ctx):
        yield from ctx.compute(1.0)  # after send (0.25), before arrival (2.25)
        yield from ep1.recv()
        times["recv"] = ctx.now

    machine.sim.spawn(sender(machine.contexts[0]))
    machine.sim.spawn(receiver(machine.contexts[1]))
    machine.run()
    assert times["recv"] == pytest.approx(2.25)


def test_messages_delivered_in_arrival_order(machine, world):
    ep0 = world.endpoint(machine.contexts[0])
    ep1 = world.endpoint(machine.contexts[1])
    order = []

    def sender(ctx):
        yield from ep0.send(1, "first", nbytes=0)
        yield from ep0.send(1, "second", nbytes=0)

    def receiver(ctx):
        for _ in range(2):
            msg = yield from ep1.recv()
            order.append(msg.tag)

    machine.sim.spawn(sender(machine.contexts[0]))
    machine.sim.spawn(receiver(machine.contexts[1]))
    machine.run()
    assert order == ["first", "second"]


def test_world_counters(machine, world):
    ep0 = world.endpoint(machine.contexts[0])
    ep3 = world.endpoint(machine.contexts[3])

    def sender(ctx):
        yield from ep0.send(3, "X", nbytes=10)
        yield from ep0.send(3, "Y", nbytes=20)

    def receiver(ctx):
        yield from ep3.recv()
        yield from ep3.recv()

    machine.sim.spawn(sender(machine.contexts[0]))
    machine.sim.spawn(receiver(machine.contexts[3]))
    machine.run()
    assert world.messages_sent == 2
    assert world.bytes_sent == 30


def test_onnode_messaging_cheaper():
    net = NetworkModel(cores_per_node=2, msg_latency=5.0, onnode_latency=0.1,
                       msg_injection=0.0)
    machine = Machine(threads=4, net=net)
    world = MsgWorld(machine)
    eps = [world.endpoint(c) for c in machine.contexts]
    times = {}

    def sender(ctx):
        yield from eps[0].send(1, "near", nbytes=0)
        yield from eps[0].send(2, "far", nbytes=0)

    def near(ctx):
        msg = yield from eps[1].recv()
        times["near"] = ctx.now

    def far(ctx):
        msg = yield from eps[2].recv()
        times["far"] = ctx.now

    machine.sim.spawn(sender(machine.contexts[0]))
    machine.sim.spawn(near(machine.contexts[1]))
    machine.sim.spawn(far(machine.contexts[2]))
    machine.run()
    assert times["near"] < times["far"]


@pytest.mark.parametrize("fastpath", [
    "pure", pytest.param("fast", marks=pytest.mark.skipif(
        not fp.available(), reason="compiled core not built on this host"))])
def test_a_rank_is_killed_mid_send(fastpath, monkeypatch):
    """Rank 3 dies inside ``MsgEndpoint.send``'s injection Timeout:
    charged for a message it never posted, which ``msgs_sent`` must not
    count (the golden corpus pins this cell's counters)."""
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
    result = run_experiment(
        "mpi-ws", TreeParams.binomial(b0=64, m=2, q=0.48, seed=1),
        threads=8, seed=0, fastpath=fastpath, config=WsConfig(chunk_size=2),
        faults=parse_fault_spec("kill=3@162us,kill=5@120us", seed=0))
    assert where["T3"][-1] == "send", where
    assert result.per_thread[3].msgs_sent > 0
