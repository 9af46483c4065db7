"""The fused search loops execute the schedule of the loops they replaced.

ISSUE 14 rewrote victim selection as one kernel: ``StreamRng`` maps
draws to generator words itself, ``search_phase_park`` drives a
``ProbeScan`` instead of iterating a generator, and ``search_phase``
counts probes in a local.  Every pinned schedule depends on the old and
new loops agreeing draw for draw and float for float, so the parent
commit's two loops live on below as *reference copies* -- generator,
stdlib ``random.Random`` calls and per-probe bookkeeping intact --
and are swapped in for whole runs: events, ``repr(sim_time)``, nodes
and every per-thread counter (``probes`` included) must not move.
"""

import dataclasses

import pytest

from repro import TreeParams, run_experiment
from repro.metrics.states import SEARCHING, STEALING
from repro.sim.engine import Timeout
from repro.ws.algorithms.base import AlgorithmBase
from repro.ws.config import WsConfig
from tests.ws.test_policies import reference_lazy_cycle

TREE = TreeParams.binomial(b0=64, m=2, q=0.48, seed=1)
VARIANTS = ["upc-distmem", "upc-term-rapdif", "upc-distmem-hier"]
SEEDS = [0, 1, 2]

#: How often the reference loops ran (anti-vacuity), and how often the
#: park reference left a cycle because the surplus ran out (trap (a)).
REFERENCE_USE = {"park": 0, "poll": 0, "gate_breaks": 0}


def reference_search_phase_park(self, ctx, persist_while_working=True):
    """``AlgorithmBase.search_phase_park`` at the parent commit, with
    ``lazy_cycle`` spelled out over the stdlib generator."""
    rank = ctx.rank
    st = self.stats[rank]
    gate = self._gate
    req_slot = self.request[rank] if self.request is not None else None
    slots = self._wa_slots
    node_lo, node_hi, c_local, c_remote = self.net.ref_cost_bounds(rank)
    order = self.probe_orders[rank]
    stdlib_rng = order._rng._rng
    bmax = self.cfg.search_backoff_max
    bfactor = self.cfg.search_backoff_factor
    backoff = self.cfg.search_backoff_min
    while True:
        if req_slot is not None and req_slot.value is not None:
            yield from self.service_request(ctx)
        if gate.n_surplus > 0:
            cost_acc = 0.0
            n_probes = 0
            for victim in reference_lazy_cycle(order.segments(), stdlib_rng):
                if gate.n_surplus == 0:
                    REFERENCE_USE["gate_breaks"] += 1
                    break  # last surplus consumed mid-scan
                n_probes += 1
                cost_acc += (c_local if node_lo <= victim < node_hi
                             else c_remote)
                avail = slots[victim].value
                if avail > 0:
                    st.probes += n_probes
                    n_probes = 0
                    if cost_acc > 0:
                        yield from ctx.compute(cost_acc)
                        cost_acc = 0.0
                    self.enter_state(ctx, STEALING)
                    ok = yield from self.try_steal(ctx, victim)
                    self.enter_state(ctx, SEARCHING)
                    if ok:
                        return True
            st.probes += n_probes
            if cost_acc > 0:
                yield from ctx.compute(cost_acc)
            if not persist_while_working:
                return False
            yield from ctx.compute(backoff)
            backoff = min(backoff * bfactor, bmax)
            continue
        if not persist_while_working:
            return False
        if gate.n_active == 0:
            return False
        t_park = ctx.now
        ctx.trace("idle.park")
        yield gate.park(rank)
        ctx.trace("idle.wake")
        if req_slot is not None and req_slot.value is not None:
            yield from self.service_request(ctx)
        delay, backoff = self._park_resume_delay(
            t_park, backoff, ctx.now, bmax, bfactor)
        if delay > 0:
            yield Timeout(delay)


def reference_search_phase(self, ctx, persist_while_working=True):
    """``AlgorithmBase.search_phase`` at the parent commit: one
    ``random.Random.shuffle`` per segment, ``st.probes`` bumped per
    probe, the cost row read through ``net.shared_ref``."""
    rank = ctx.rank
    st = self.stats[rank]
    req_slot = self.request[rank] if self.request is not None else None
    shared_ref = self.net.shared_ref
    row = [shared_ref(rank, v) for v in range(self.machine.n_threads)]
    slots = self._wa_slots
    fast = self._fast
    order = self.probe_orders[rank]
    stdlib_rng = order._rng._rng

    def cycle():
        victims = []
        for seg in order.segments():
            stdlib_rng.shuffle(seg)
            victims += seg
        return victims

    backoff = self.cfg.search_backoff_min
    while True:
        if req_slot is not None and req_slot.value is not None:
            yield from self.service_request(ctx)
        any_working = False
        cost_acc = 0.0
        for victim in cycle():
            st.probes += 1
            cost_acc += row[victim]
            avail = (slots[victim].value if fast else
                     slots[victim].remote_read(ctx.now, rank))
            if avail == 0:
                any_working = True
            elif avail > 0:
                if cost_acc > 0:
                    yield from ctx.compute(cost_acc)
                    cost_acc = 0.0
                self.enter_state(ctx, STEALING)
                ok = yield from self.try_steal(ctx, victim)
                self.enter_state(ctx, SEARCHING)
                if ok:
                    return True
                any_working = True
        if cost_acc > 0:
            yield from ctx.compute(cost_acc)
        if not persist_while_working or not any_working:
            return False
        yield from ctx.compute(backoff)
        backoff = min(backoff * self.cfg.search_backoff_factor,
                      self.cfg.search_backoff_max)


def counted(key, phase):
    def wrapper(self, ctx, persist_while_working=True):
        REFERENCE_USE[key] += 1
        return phase(self, ctx, persist_while_working)
    return wrapper


def fingerprint(result):
    return (
        result.engine_events,
        repr(result.sim_time),
        result.total_nodes,
        [(dataclasses.asdict(st) | {"timer": None}, st.timer.times,
          st.timer.transitions) for st in result.per_thread],
    )


def run(variant, threads, seed, idle):
    # The reference loops are Python; pin the default run to the same
    # backend so the comparison is loop against loop (C == Python is
    # tests/fastpath's job).
    return fingerprint(run_experiment(
        variant, TREE, threads=threads, seed=seed, fastpath="pure",
        config=WsConfig(chunk_size=4, idle_strategy=idle)))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("threads", [64, 256])
@pytest.mark.parametrize("variant", VARIANTS)
def test_park_scan_executes_the_generator_loops_schedule(
        variant, threads, seed, monkeypatch):
    fused = run(variant, threads, seed, "park")
    assert fused[2] == 3009
    assert sum(st["probes"] for st, _, _ in fused[3]) > 0
    before = dict(REFERENCE_USE)
    monkeypatch.setattr(AlgorithmBase, "search_phase_park",
                        counted("park", reference_search_phase_park))
    reference = run(variant, threads, seed, "park")
    assert REFERENCE_USE["park"] > before["park"], \
        "the reference loop never ran"
    assert reference == fused


def test_the_park_cells_cross_trap_a():
    """At least one cell above leaves a cycle through ``abandon()``, so
    the discarded draw is covered end to end, not only in
    tests/ws/test_policies.py."""
    before = REFERENCE_USE["gate_breaks"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AlgorithmBase, "search_phase_park",
                   reference_search_phase_park)
        for variant in VARIANTS:
            run(variant, 256, 0, "park")
    assert REFERENCE_USE["gate_breaks"] > before


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_poll_search_executes_the_per_probe_loops_schedule(
        variant, seed, monkeypatch):
    fused = run(variant, 64, seed, "poll")
    assert fused[2] == 3009
    before = REFERENCE_USE["poll"]
    monkeypatch.setattr(AlgorithmBase, "search_phase",
                        counted("poll", reference_search_phase))
    reference = run(variant, 64, seed, "poll")
    assert REFERENCE_USE["poll"] > before, "the reference loop never ran"
    assert reference == fused
