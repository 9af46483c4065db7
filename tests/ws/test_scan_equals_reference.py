"""The one Searching state executes the schedule of the two it replaced.

The merge folded ``search_phase`` (polling) and ``search_phase_park``
into :meth:`AlgorithmBase.search_phase`, which reads the termination
policy's persistence and the idle gate as switches before its loop
starts and keeps both victim readers: ``cycle()`` without a gate,
``scan()`` with one.  Every pinned schedule depends on the merged loop
drawing, pricing, counting and yielding exactly what the copy it
stands in for did, so the parent commit's two loops (and the cost row
the polling one read) live on below *verbatim*, dispatched the way the
parent's two ``thread_main`` s chose between them, and are swapped in
for whole runs.  Default and reference runs must agree on events,
``repr(sim_time)``, nodes, every per-thread counter and state timer,
the fault ledgers and, traced, the whole record stream.

A line tracer scoped to the merged loop then shows the cells are not
vacuous: parks, services on wake, ``abandon()`` crossings, exits on
"no one is working" and staleness-checked probes all happen.
"""

import dataclasses
import inspect
import sys
from typing import Generator, List

import pytest

from repro import TreeParams, run_experiment
from repro.faults.plan import parse_fault_spec
from repro.metrics.states import SEARCHING, STEALING
from repro.obs import TraceSink
from repro.pgas.machine import UpcContext
from repro.service import ArrivalProcess, ServiceConfig, run_service
from repro.sim.engine import Timeout
from repro.ws.algorithms.base import AlgorithmBase
from repro.ws.config import WsConfig
from repro.ws.termination.strategies import NoTermination

TREE = TreeParams.binomial(b0=64, m=2, q=0.48, seed=1)
SERVICE = ServiceConfig(arrivals=ArrivalProcess(rate=8e5), n_tasks=120,
                        queue_capacity=16, policy="shed-oldest",
                        deadline=150e-6, max_retries=2, seed=3)
VARIANTS = ["upc-distmem", "upc-term-rapdif", "upc-distmem-hier"]
SEEDS = [0, 1, 2]
KILLS = "kill=3@103us,kill=5@120us"
STALE = "stale=0.4,stale-window=60us"

#: How often each parent loop ran (anti-vacuity for the swap).
REFERENCE_USE = {"poll": 0, "park": 0}


# -- the parent commit's loops, verbatim --------------------------------------

def _ref_row(self, rank: int) -> List[float]:
    """Shared-reference cost from ``rank`` to every victim, built on
    first use and cached (identical floats to calling
    ``net.shared_ref`` per probe: remote everywhere, local across
    the rank's own node, free at the rank itself)."""
    row = self._ref_rows.get(rank)
    if row is None:
        n = self.machine.n_threads
        lo, hi, c_local, c_remote = self.net.ref_cost_bounds(rank)
        hi = min(hi, n)
        row = self._ref_rows[rank] = [c_remote] * n
        row[lo:hi] = [c_local] * (hi - lo)
        row[rank] = 0.0
    return row


def search_phase(self, ctx: UpcContext,
                 persist_while_working: bool = True) -> Generator:
    """Probe for a victim; steal if found.

    Returns True once work is in hand.  Returns False when the
    thread should enter termination detection: after a single
    failed cycle if ``persist_while_working`` is False (sharedmem,
    Sect. 3.1), or only once every other thread reports NO_WORK if
    True (streamlined, Sect. 3.3.1).  With poll slots, a pending
    steal request is serviced at the top of every cycle, so a
    searching victim denies promptly (Sect. 3.3.3).
    """
    rank = ctx.rank
    st = self.stats[rank]
    req_slot = self.request[rank] if self.request is not None else None
    row = self._ref_row(rank)
    slots = self._wa_slots
    # Fault-free, a staleable slot's window can never open, so the
    # probe may read the value directly (identical result) instead
    # of paying remote_read's staleness bookkeeping per victim.
    fast = self._fast
    cycle = self.probe_orders[rank].cycle
    backoff = self.cfg.search_backoff_min
    while True:
        if req_slot is not None and req_slot.value is not None:
            yield from self.service_request(ctx)
        any_working = False
        cost_acc = 0.0
        n_probes = 0  # flushed into st.probes before every yield
        for victim in cycle():
            n_probes += 1
            cost_acc += row[victim]
            avail = (slots[victim].value if fast else
                     slots[victim].remote_read(ctx.now, rank))
            if avail == 0:
                any_working = True
            elif avail > 0:
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
                # Empty or denied: "the probe proceeds to the next
                # victim" (Sect. 3.1; likewise 3.3.3).
                any_working = True
        st.probes += n_probes
        if cost_acc > 0:
            yield from ctx.compute(cost_acc)
        if not persist_while_working or not any_working:
            return False
        yield from ctx.compute(backoff)
        backoff = min(backoff * self.cfg.search_backoff_factor,
                      self.cfg.search_backoff_max)


def search_phase_park(self, ctx: UpcContext,
                      persist_while_working: bool = True) -> Generator:
    """Event-driven :meth:`search_phase` (``idle_strategy="park"``).

    Two deviations from polling, both keyed off the idle gate's
    exact counters (updated synchronously at every ``work_avail``
    write, so never stale):

    * A probe cycle runs only while ``gate.n_surplus > 0`` -- when
      no thread has stealable work, a full scan *provably* fails,
      so the thread skips straight to parking instead of paying n
      probes to learn nothing.  (The real machine pays those futile
      probes; E11's polling baseline still does.)  A cycle also
      stops early once the last surplus is consumed mid-scan.
    * Between cycles the thread parks on the gate rather than
      keeping a backoff Timeout in the event queue.  Park requires
      ``n_surplus == 0 and n_active > 0``, checked atomically with
      registration (no yield in between, so no missed wakeup); a
      new surplus wakes a bounded batch of parked threads, and the
      last active rank going idle wakes everyone, so every park is
      eventually woken.  On wake the thread resumes at the next tick
      of its virtual polling cadence (:meth:`_park_resume_delay`),
      never probing more often than the polling build would.

    With poll slots a pending steal request is serviced at the top
    of every iteration *and* immediately on wake -- a thief's
    targeted wake means a request is waiting and the thief is
    blocked on our answer.

    Probes are priced from :meth:`ref_cost_bounds` (a cached row
    per rank is O(n^2) machine-wide) and drawn by a
    :meth:`~repro.ws.policies.ProbeOrder.scan`, so a cycle a steal
    or the gate cuts short costs O(probed), not O(n), host-side.
    """
    rank = ctx.rank
    st = self.stats[rank]
    gate = self._gate
    req_slot = self.request[rank] if self.request is not None else None
    slots = self._wa_slots
    bounds = self.net.ref_cost_bounds(rank)
    new_scan = self.probe_orders[rank].scan
    probe = self._scan_probe
    bmax = self.cfg.search_backoff_max
    bfactor = self.cfg.search_backoff_factor
    backoff = self.cfg.search_backoff_min
    while True:
        if req_slot is not None and req_slot.value is not None:
            yield from self.service_request(ctx)
        if gate.n_surplus > 0:
            scan = new_scan()
            while True:
                victim, cost_acc, n_probes = probe(scan, slots, bounds)
                st.probes += n_probes
                if cost_acc > 0:
                    yield from ctx.compute(cost_acc)
                if victim is None:
                    break
                self.enter_state(ctx, STEALING)
                ok = yield from self.try_steal(ctx, victim)
                self.enter_state(ctx, SEARCHING)
                if ok:
                    return True
                # Only a steal attempt yields, so only here can the
                # surplus count have changed under the scan.
                if gate.n_surplus == 0:
                    scan.abandon()  # last surplus consumed mid-scan
                    break
            # The scan holds an O(n) victim list: drop it before
            # backing off or parking.
            del scan
            if not persist_while_working:
                return False
            # Failed cycle with surplus still visible: stay on the
            # polling cadence so the next attempt happens promptly.
            yield from ctx.compute(backoff)
            backoff = min(backoff * bfactor, bmax)
            continue
        if not persist_while_working:
            return False
        if gate.n_active == 0:
            # Globally idle (exact, not a stale probe snapshot):
            # enter termination detection.
            return False
        # Some thread is working but nothing is stealable: park.
        t_park = ctx.now
        ctx.trace("idle.park")
        yield gate.park(rank)
        ctx.trace("idle.wake")
        if req_slot is not None and req_slot.value is not None:
            # Serviced before rejoining the cadence: the requesting
            # thief is blocked on this answer right now.
            yield from self.service_request(ctx)
        delay, backoff = self._park_resume_delay(
            t_park, backoff, ctx.now, bmax, bfactor)
        if delay > 0:
            yield Timeout(delay)


# -- harness --------------------------------------------------------------------

def reference_search(self, ctx):
    """The parent's choice between its two loops.  ``AlgorithmBase``
    parked where a gate exists and the termination policy is
    park-capable, persisting as the policy says; the service pool
    parked wherever a gate exists and never persisted -- the same
    choice, because its policy (``NoTermination``) is park-capable and
    does not persist (pinned below)."""
    if "_ref_rows" not in vars(self):
        self._ref_rows = {}
    term = self._termination
    park = self._gate is not None and term.park_capable
    REFERENCE_USE["park" if park else "poll"] += 1
    loop = search_phase_park if park else search_phase
    return loop(self, ctx, persist_while_working=term.persist_while_working)


def test_the_service_policy_is_the_one_the_dispatch_assumes():
    assert NoTermination.park_capable
    assert not NoTermination.persist_while_working


@pytest.fixture
def reference_loops(monkeypatch):
    """Give the Searching state its parent-commit loops back."""
    monkeypatch.setattr(AlgorithmBase, "search_phase", reference_search)
    monkeypatch.setattr(AlgorithmBase, "_ref_row", _ref_row, raising=False)
    return REFERENCE_USE


class Spy(TraceSink):
    """A tracer that keeps the algorithm instance."""

    def attach_algorithm(self, algo):
        self.algo = algo


def run(variant, threads, seed, idle, faults=None, traced=False):
    # The reference loops are Python; pin the default run to the same
    # backend so the comparison is loop against loop (C == Python is
    # tests/fastpath's job).
    spy = Spy(enabled=traced)
    kw = dict(threads=threads, seed=seed, fastpath="pure", tracer=spy,
              config=WsConfig(chunk_size=4, idle_strategy=idle),
              faults=faults and parse_fault_spec(faults, seed=0))
    if variant == "service-ws":
        result = run_service(SERVICE, **kw)
    else:
        result = run_experiment(variant, TREE, **kw)
    return (
        result.engine_events,
        repr(result.sim_time),
        result.total_nodes,
        [(dataclasses.asdict(st) | {"timer": None}, st.timer.times,
          st.timer.transitions) for st in result.per_thread],
        (result.lost_work, result.fault_counters),
        spy.records,
    )


#: (variant, threads, seed, idle, fault spec, traced)
CELLS = (
    [(v, n, s, "park", None, False)
     for v in VARIANTS for n in (64, 256) for s in SEEDS]
    + [(v, 64, s, "poll", None, False) for v in VARIANTS for s in SEEDS]
    + [
        # persist False, under both idle strategies
        ("service-ws", 8, 1, "poll", None, False),
        ("service-ws", 8, 1, "park", None, False),
        ("upc-sharedmem", 64, 0, "poll", None, False),
        # park_capable False: the poll reader runs under park
        ("upc-sharedmem", 64, 0, "park", None, False),
        # a thief's targeted wake, served before the cadence sleep
        ("upc-distmem-hier", 8, 0, "park", None, False),
        # remote_read probes under stale-read windows
        ("upc-distmem", 8, 0, "poll", STALE, False),
        ("upc-term", 8, 0, "poll", STALE, False),
        # fail-stop under park: the gate stays on
        ("upc-term-rapdif", 8, 0, "park", KILLS, False),
        ("upc-distmem", 8, 0, "park", KILLS, False),
        ("service-ws", 8, 1, "park", KILLS, False),
        # the record stream
        ("upc-distmem", 64, 0, "park", None, True),
        ("upc-term", 8, 0, "poll", STALE, True),
    ])


def cell_id(cell):
    variant, threads, seed, idle, faults, traced = cell
    return "-".join([variant, f"t{threads}", f"s{seed}", idle,
                     "stale" if faults == STALE else
                     "kills" if faults else "clean"]
                    + (["traced"] if traced else []))


@pytest.mark.parametrize("cell", CELLS, ids=[cell_id(c) for c in CELLS])
def test_merged_search_executes_the_parent_loops_schedule(cell, request):
    merged = run(*cell)
    assert merged[2] > 0
    assert bool(merged[5]) == cell[5]
    assert sum(st["probes"] for st, _, _ in merged[3]) > 0
    use = request.getfixturevalue("reference_loops")
    # upc-sharedmem's cancelable barrier is not park-capable
    loop = ("park" if cell[3] == "park" and cell[0] != "upc-sharedmem"
            else "poll")
    before = use[loop]
    reference = run(*cell)
    assert use[loop] > before, f"the parent's {loop} loop never ran"
    assert reference == merged


# -- anti-vacuity: the merged loop's branches are crossed ----------------------

#: Branch -> the source line of ``AlgorithmBase.search_phase`` that
#: only it executes (``wake_service``: the first service call after the
#: park; ``idle_exit`` and ``remote_read`` are filtered in ``crossings``).
MARKERS = {
    "park": "yield gate.park(rank)",
    "abandon": "scan.abandon()",
    "idle_exit": "if not persist or (gate is None and not any_working):",
    "remote_read": "avail = (slots[victim].value if fast else",
}


def crossings(cells):
    """Run ``cells`` under a line tracer scoped to the merged loop and
    count how often each marked branch executed: ``idle_exit`` only
    when a persisting poll search leaves because no one works,
    ``remote_read`` only for probes that read through the staleness
    check."""
    code = AlgorithmBase.search_phase.__code__
    lines, first = inspect.getsourcelines(AlgorithmBase.search_phase)
    by_line = {}
    for name, text in MARKERS.items():
        hits = [first + i for i, line in enumerate(lines)
                if line.strip().startswith(text)]
        assert len(hits) == 1, f"marker {name!r} matches lines {hits}"
        by_line[hits[0]] = name
    park = next(k for k, v in by_line.items() if v == "park")
    by_line[next(first + i for i, line in enumerate(lines)
                 if first + i > park and line.strip()
                 == "yield from self.service_request(ctx)")] = "wake_service"
    counts = dict.fromkeys([*MARKERS, "wake_service"], 0)

    def local(frame, event, arg):
        if event == "line":
            name = by_line.get(frame.f_lineno)
            f = frame.f_locals
            if name == "idle_exit":
                counts[name] += (f["persist"] and f["gate"] is None
                                 and not f["any_working"])
            elif name == "remote_read":
                counts[name] += not f["fast"]
            elif name is not None:
                counts[name] += 1
        return local

    def scoped(frame, event, arg):
        return local if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(scoped)
    try:
        for cell in cells:
            run(*cell)
    finally:
        sys.settrace(previous)
    return counts


def test_the_cells_cross_every_branch_of_the_merged_loop():
    counts = crossings([
        ("upc-distmem-hier", 64, 0, "park", None, False),
        ("upc-term", 8, 0, "poll", STALE, False),
    ])
    assert all(counts.values()), counts
