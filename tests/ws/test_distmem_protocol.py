"""Focused tests of the distmem request/response protocol internals."""

import pytest

from repro import TreeParams, run_experiment
from repro.net import KITTYHAWK, NetworkModel
from repro.obs import TraceSink
from repro.pgas import Machine
from repro.uts.tree import Tree
from repro.ws.algorithms import get_algorithm
from repro.ws.config import WsConfig

TREE = TreeParams.binomial(b0=100, m=2, q=0.49, seed=0)


def run_traced(threads=8, k=4, **kw):
    tracer = TraceSink()
    res = run_experiment("upc-distmem", tree=TREE, threads=threads,
                         preset="kittyhawk", chunk_size=k, tracer=tracer,
                         verify=True, **kw)
    return res, tracer


def test_every_successful_steal_has_a_service_event():
    res, tracer = run_traced()
    services = [r for r in tracer.records if r.kind == "service"]
    grants = [r for r in services if r.args["chunks"] != 0]
    assert len(grants) == res.stats.steals_ok
    assert len(services) == (res.stats.requests_granted
                             + res.stats.requests_denied)


def test_steals_follow_services_in_time():
    """A thief's steal trace never precedes its victim's service."""
    _, tracer = run_traced()
    service_times = {}
    for r in tracer.records:
        if r.kind == "service":
            service_times.setdefault(r.args["thief"], []).append(r.time)
    for r in tracer.records:
        if r.kind == "steal":
            assert r.rank in service_times, "steal without any service"
            assert any(t <= r.time for t in service_times[r.rank])


def test_request_slots_empty_after_termination():
    machine = Machine(threads=8, net=KITTYHAWK, seed=0)
    algo = get_algorithm("upc-distmem")(machine, Tree(TREE), WsConfig(chunk_size=4))
    machine.spawn_all(algo.thread_main)
    machine.run()
    algo.finalize()
    assert all(slot.value is None for slot in algo.request)
    assert all(ev is None for ev in algo.response_events)
    assert all(not lk.fifo.locked for lk in algo.req_locks)


def test_no_stack_locks_in_distmem():
    """The lock-less claim: distmem allocates no per-stack locks."""
    machine = Machine(threads=4, net=KITTYHAWK, seed=0)
    algo = get_algorithm("upc-distmem")(machine, Tree(TREE), WsConfig(chunk_size=4))
    assert not hasattr(algo, "stack_locks")
    lock_based = get_algorithm("upc-term")(
        Machine(threads=4, net=KITTYHAWK, seed=0), Tree(TREE),
        WsConfig(chunk_size=4))
    assert hasattr(lock_based, "stack_locks")


def test_victim_denies_when_no_surplus():
    """Denials occur and carry zero chunks (the 'amount would be zero'
    rule of Sect. 3.3.3)."""
    res, tracer = run_traced(threads=12, k=8)
    denials = [r for r in tracer.records
               if r.kind == "service" and r.args["chunks"] == 0]
    assert len(denials) == res.stats.requests_denied
    assert res.stats.requests_denied > 0  # rare trees may violate; this one doesn't


def test_event_limit_guard_raises_cleanly():
    from repro.errors import EventLimitExceeded

    with pytest.raises(EventLimitExceeded):
        run_experiment("upc-distmem", tree=TREE, threads=8,
                       preset="kittyhawk", chunk_size=4, max_events=200)


def test_work_avail_semantics_final_state():
    """After termination every thread reports NO_WORK."""
    machine = Machine(threads=6, net=KITTYHAWK, seed=0)
    algo = get_algorithm("upc-distmem")(machine, Tree(TREE), WsConfig(chunk_size=4))
    machine.spawn_all(algo.thread_main)
    machine.run()
    algo.finalize()
    assert all(v == -1 for v in algo.work_avail.values())
