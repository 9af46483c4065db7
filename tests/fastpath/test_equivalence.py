"""Pure vs compiled backend: bit-identical schedules, full coverage.

The fastpath contract is not "about the same" -- it is *the same
schedule*: every per-thread counter, every state-timer total, and the
final simulated clock must match the pure-Python loops exactly.  These
tests run each work-stealing variant once per backend on a small
materialized tree and compare everything a run reports, plus one
park-mode cell (event-driven idling bypasses the fused phases but
still dispatches through the compiled run loop), one open-system
service cell, and one cell on a machine whose shared references and
locks cost nothing (the zero-cost shortcuts of the compiled phases).

All tests are skipped when the extension is not built -- the pure
backend is then the only backend, and `test_selection.py` covers that
degradation.
"""

import dataclasses

import pytest

import repro.fastpath as fp
from repro.harness.config import T1_QUICK
from repro.harness.runner import run_experiment
from repro.net.presets import get_preset
from repro.uts.materialized import materialize
from repro.uts.params import TreeParams
from repro.ws.config import WsConfig

pytestmark = pytest.mark.skipif(
    not fp.available(), reason="compiled core not built on this host")

VARIANTS = [
    "upc-sharedmem",
    "upc-term",
    "upc-term-rapdif",
    "upc-distmem",
    "upc-distmem-hier",
    "mpi-ws",
]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    """A forced REPRO_FASTPATH would make both legs the same backend."""
    monkeypatch.delenv("REPRO_FASTPATH", raising=False)


@pytest.fixture(scope="module")
def tree():
    # run_experiment does NOT materialize implicit trees itself; the
    # compiled working phases need the precomputed child map, so an
    # un-materialized tree would silently test pure-vs-pure.
    return materialize(T1_QUICK)


def run_snapshot(algo, tree, backend, threads=16, **kw):
    """Everything a run reports that is a function of the schedule."""
    r = run_experiment(algo, tree, threads, seed=0, fastpath=backend, **kw)
    per = [
        (s.nodes_visited, s.probes, s.steal_attempts, s.steals_ok,
         s.requests_granted, s.requests_denied, s.releases,
         s.reacquires, s.msgs_sent, s.timer.transitions,
         tuple(sorted(s.timer.times.items())))
        for s in r.per_thread
    ]
    return (r.total_nodes, r.engine_events, r.sim_time, r.lost_work, per)


@pytest.mark.parametrize("algo", VARIANTS)
def test_variant_bit_identical(algo, tree):
    pure = run_snapshot(algo, tree, "pure", chunk_size=8)
    fast = run_snapshot(algo, tree, "fast", chunk_size=8)
    assert fast == pure


def test_park_mode_bit_identical(tree):
    cfg = WsConfig(chunk_size=4, idle_strategy="park")
    pure = run_snapshot("upc-distmem", tree, "pure", config=cfg)
    fast = run_snapshot("upc-distmem", tree, "fast", config=cfg)
    assert fast == pure


#: A machine where a shared reference, a lock round trip and the
#: barrier's home occupancy are all free: every rank's ``lock_to`` is
#: negative and ``reset_cost`` zero in the working phase, and every
#: probe-cost and steal-cost push of the search phase takes its
#: zero-cost shortcut -- blocks no other tier-1 or ledger cell executes.
FREE_REFERENCES = dataclasses.replace(
    get_preset("sharedmem"), local_shared_ref=0, remote_shared_ref=0,
    lock_overhead=0, home_occupancy=0)


@pytest.mark.parametrize("algo", [v for v in VARIANTS
                                  if v != "upc-distmem-hier"])
def test_free_references_bit_identical(algo):
    small = TreeParams.binomial(b0=64, q=0.48, seed=1)
    kw = dict(threads=8, net=FREE_REFERENCES, chunk_size=2)
    pure = run_snapshot(algo, small, "pure", **kw)
    assert pure[1] > 900  # a schedule, not a degenerate run
    assert run_snapshot(algo, small, "fast", **kw) == pure


def test_stream_without_getrandbits_falls_back_to_cycle(tree, monkeypatch):
    """The compiled search phase has one victim source: the probe
    order's segments, shuffled natively over the stream's public
    ``getrandbits``.  Over a stream that has none, no ``SearchPhase``
    is bound and the generator search calls ``cycle()`` per round --
    same draws either way, so the schedule must not move."""
    from repro.ws.algorithms.base import AlgorithmBase
    from repro.ws.policies import ProbeOrder
    from repro.ws.registry import VICTIM_POLICIES

    class OpaqueStream:
        def __init__(self, rng):
            self.shuffled = rng.shuffled
            self.randrange = rng.randrange

    stock = run_snapshot("upc-distmem", tree, "fast", chunk_size=8)
    bound = []
    real = AlgorithmBase._build_c_search
    monkeypatch.setattr(
        AlgorithmBase, "_build_c_search",
        lambda self, rank: bound.append(real(self, rank)) or bound[-1])
    monkeypatch.setitem(
        VICTIM_POLICIES._entries, "uniform",
        lambda rank, n, rng, net: ProbeOrder(rank, n, OpaqueStream(rng)))
    assert run_snapshot("upc-distmem", tree, "fast", chunk_size=8) == stock
    # asked once per rank (so the run fused), declined every time
    assert len(bound) == 16 and all(b is None for b in bound)


def test_service_mode_bit_identical():
    from repro.service import ServiceConfig, run_service

    service = ServiceConfig(n_tasks=120)
    cfg = WsConfig(chunk_size=2, idle_strategy="park")

    def snap(backend):
        r = run_service(service, threads=16, config=cfg, seed=0,
                        fastpath=backend)
        return (r.admitted, r.completed, tuple(sorted(r.shed.items())),
                r.lost_tasks, r.retries, r.deadline_miss, r.block_waits,
                r.lat_p50, r.lat_p95, r.lat_p99, r.lat_mean, r.lat_max,
                r.queue_peak, r.total_nodes, r.engine_events, r.sim_time)

    assert snap("fast") == snap("pure")


def test_backends_actually_differ(tree):
    """Guard against vacuous equality: the fast leg must really engage
    the compiled loop (a broken gate would silently compare pure to
    pure and the suite would prove nothing)."""
    from repro.pgas.machine import Machine
    from repro.net.presets import get_preset

    m = Machine(threads=4, net=get_preset("kittyhawk"), seed=0,
                fastpath="fast")
    assert m.sim.fastpath_active
    m2 = Machine(threads=4, net=get_preset("kittyhawk"), seed=0,
                 fastpath="pure")
    assert not m2.sim.fastpath_active
