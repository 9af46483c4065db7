"""The golden schedule corpus: which runs are pinned and what a run shows.

A cell is one public-API call -- :func:`repro.run_experiment`,
:func:`repro.run_service`, :func:`repro.check.check_run` or
:func:`repro.check.check_service_run` -- named by its arguments.  A
monitor cell may add a tamper ``(name, rank, emit)``: the run is
corrupted once, at the first emit past ``emit`` where the tamper
applies, on the stack of the emitting rank plus ``rank`` (modulo the
machine), before the monitor looks.

:func:`observe` runs a cell and returns what ``schedules.json`` holds
for it: engine events, ``repr(sim_time)``, nodes, lost and duplicated
work, the fault counters, a SHA-1 of the per-thread, lock, ``work_avail``
and idle-gate counters, the service ledger of a stream, the record-kind
histogram and a SHA-1 of the record stream of a traced run (every
record's time, rank, kind and fields), and for a monitor cell the
monitor's summary and verdict.  ``traced`` cells are
replayed traced and untraced against their one entry.

The matrix is the union of what the refactors since the one Working
state pinned: every variant and ``service-ws`` at k in {2, 4}, polling
and parked, clean and under the richest plan each admits; the Searching
state at 8-256 threads; the mpi-ws idle loop under every message and
fail-stop class at 1-64 threads; the message layer and each claim under
its fault classes; service streams by load, admission policy, storm
and task engine; the fuzzer's monitored cell space with planted
corruptions; and the cross-backend cells (Figure 4's tree, a park
matrix, free references, service loads).
"""

from __future__ import annotations

import dataclasses
import hashlib
import marshal
import os
from collections import Counter
from dataclasses import dataclass
from typing import Optional
from unittest import mock

import repro.check.runner as check_runner
from repro import ALGORITHMS, TreeParams, WsConfig, run_experiment
from repro.check import (VARIANTS, InvariantMonitor, check_run,
                         check_service_run)
from repro.errors import ConfigError
from repro.faults.plan import parse_fault_spec
from repro.harness.config import T1_QUICK
from repro.metrics import ThreadStats
from repro.net.presets import get_preset
from repro.obs import TraceSink
from repro.scenarios import get_scenario, parse_adversaries
from repro.service import ArrivalProcess, ServiceConfig, run_service
from repro.ws.algorithms import get_algorithm

TREES = {
    "small": TreeParams.binomial(b0=64, m=2, q=0.48, seed=1),
    "t1-quick": T1_QUICK,
}
#: A machine where a shared reference, a lock round trip and the
#: barrier's home occupancy are free: the zero-cost shortcuts.
NETS = {
    "free-references": get_preset("sharedmem").with_overrides(
        local_shared_ref=0, remote_shared_ref=0, lock_overhead=0,
        home_occupancy=0),
}


@dataclass
class Cell:
    api: str
    kwargs: dict
    #: Replayed traced as well as untraced (the entry holds the
    #: record stream); False for the large machines.
    traced: bool = True
    tamper: Optional[tuple] = None

    @property
    def name(self) -> str:
        parts = [self.api] + [
            str(v) if k in ("variant", "scenario") else f"{k}={v}"
            for k, v in self.kwargs.items()]
        if self.tamper is not None:
            parts.append("tamper={}@{}+{}".format(*self.tamper))
        return " ".join(parts)


def run(variant, *, threads=8, chunk_size=2, idle="poll", faults=None,
        fault_seed=0, seed=0, tree="small", adversaries=None, net=None,
        traced=True):
    kw = dict(variant=variant, tree=tree, threads=threads, seed=seed,
              chunk_size=chunk_size, idle_strategy=idle, faults=faults,
              fault_seed=fault_seed, adversaries=adversaries, net=net)
    return Cell("run_experiment", _given(kw, RUN_DEFAULTS), traced)


def serve(*, threads=8, chunk_size=2, idle="poll", faults=None,
          fault_seed=0, seed=1, traced=True, **service):
    kw = dict(threads=threads, seed=seed, chunk_size=chunk_size,
              idle_strategy=idle, faults=faults, fault_seed=fault_seed,
              **service)
    return Cell("run_service", _given(kw, SERVE_DEFAULTS), traced)


def check(variant=None, *, tamper=None, **kw):
    if variant is None:
        return Cell("check_service_run", kw, False, tamper)
    return Cell("check_run", {"variant": variant, **kw}, False, tamper)


RUN_DEFAULTS = dict(tree="small", seed=0, faults=None, fault_seed=0,
                    adversaries=None, net=None)
#: The stream of the Working/Searching cells (the fuzzer's service cell).
SERVICE = dict(rate=8e5, n_tasks=120, queue_capacity=16,
               policy="shed-oldest", deadline=150e-6, max_retries=2,
               task_engine="splitmix", service_seed=3)
SERVE_DEFAULTS = dict(seed=1, faults=None, fault_seed=0, **SERVICE)


def _given(kw, defaults):
    return {k: v for k, v in kw.items()
            if k not in defaults or v != defaults[k]}


# -- the matrix -----------------------------------------------------------------

KILLS = "kill=3@103us,kill=5@120us"
STALE = "stale=0.4,stale-window=60us"
LOCKED = "stall=0.2,stale=0.3,stale-window=60us,kill=3@103us"
#: Under polling each variant's richest plan; parked, fail-stop only.
POLL_PLANS = {
    "upc-sharedmem": LOCKED,
    "upc-term": LOCKED,
    "upc-term-rapdif": LOCKED,
    "service-ws": LOCKED,
    "upc-distmem": "stale=0.3,stale-window=60us," + KILLS,
    "upc-distmem-hier": "stale=0.3,stale-window=60us," + KILLS,
    "mpi-ws": "drop=0.05,dup=0.05,delay=0.1,kill=3@103us",
    "ws-fencefree": STALE,
    "tree-split": STALE,
}


def _working():
    """Every variant and service-ws, k in {2, 4}, poll/park,
    clean/faulted (the stale-only variants have no parked plan)."""
    for variant in sorted(ALGORITHMS) + ["service-ws"]:
        for k in (2, 4):
            for idle in ("poll", "park"):
                for plan in (None, POLL_PLANS[variant] if idle == "poll"
                             else KILLS):
                    if idle == "park" and plan and \
                            POLL_PLANS[variant] == STALE:
                        continue
                    if variant == "service-ws":
                        yield serve(chunk_size=k, idle=idle, faults=plan)
                    else:
                        yield run(variant, chunk_size=k, idle=idle,
                                  faults=plan)


def _searching():
    """The Searching state: parks and on-wake services at 64-256
    threads, persist on/off, stale probes, kills under park."""
    hunters = ("upc-distmem", "upc-term-rapdif", "upc-distmem-hier")
    for variant in hunters:
        for seed in (0, 1, 2):
            for threads in (64, 256):
                yield run(variant, threads=threads, seed=seed, chunk_size=4,
                          idle="park", traced=False)
            yield run(variant, threads=64, seed=seed, chunk_size=4,
                      traced=False)
    yield serve(chunk_size=4)
    yield serve(chunk_size=4, idle="park")
    yield run("upc-sharedmem", threads=64, chunk_size=4, traced=False)
    yield run("upc-sharedmem", threads=64, chunk_size=4, idle="park",
              traced=False)
    yield run("upc-distmem-hier", chunk_size=4, idle="park")
    yield run("upc-distmem", chunk_size=4, faults=STALE)
    yield run("upc-term", chunk_size=4, faults=STALE)
    yield run("upc-term-rapdif", chunk_size=4, idle="park", faults=KILLS)
    yield run("upc-distmem", chunk_size=4, idle="park", faults=KILLS)
    yield serve(chunk_size=4, idle="park", faults=KILLS)
    yield run("upc-distmem", threads=64, chunk_size=4, idle="park")


def mpi_plan(kind, threads):
    """One fault class sized to the machine: a ring token crosses every
    rank a round, so at 64 ranks a 10 % drop rate loses nearly every
    round (the run never terminates) and a 20 % delay rate voids enough
    of them to run for minutes."""
    small = threads <= 8
    return {
        "clean": None,
        "drop": f"drop={0.1 if small else 0.01}",
        "dup": "dup=0.1",
        "delay": f"delay={0.2 if small else 0.05}",
        "kill": f"kill={threads - 1}@150us",
        "storm": f"storm(kill:{min(3, threads - 1)}@t=100us..300us)",
    }[kind]


def _idle():
    """The mpi-ws idle loop: every message and fail-stop class polled,
    fail-stop parked, on 1-64 ranks (a lone rank 0 cannot be killed)."""
    for threads in (1, 2, 8, 64):
        for idle, kinds in (("poll", ("clean", "drop", "dup", "delay",
                                      "kill", "storm")),
                            ("park", ("clean", "kill", "storm"))):
            for kind in kinds:
                if threads == 1 and kind in ("kill", "storm"):
                    continue
                yield run("mpi-ws", threads=threads, chunk_size=4, idle=idle,
                          faults=mpi_plan(kind, threads),
                          traced=threads < 64)
    for idle in ("poll", "park"):
        yield run("mpi-ws", chunk_size=4, idle=idle, adversaries="dup@1,2")


#: Rank 3 is killed inside a send's injection Timeout at this time
#: (tests/msg/test_comm.py::test_a_rank_is_killed_mid_send).
MID_SEND_KILL = "kill=3@162us"
SEND_PLANS = {
    "drop": "drop=0.1",
    "dup": "dup=0.1",
    "delay": "delay=0.2",
    "stall": "stall=0.2,stale=0.3,stale-window=60us",
    "stale": STALE,
    "kill": MID_SEND_KILL + ",kill=5@120us",
    "slow": "slow=2@3,slow=6@3",
}


def _messages_and_claims():
    """The message layer and every claim protocol under the classes
    each variant takes; parked under the fail-stop ones."""
    locked = ("stall", "kill", "slow")
    classes = {
        "mpi-ws": ("drop", "dup", "delay", "kill", "slow"),
        "upc-sharedmem": locked,
        "upc-term": locked,
        "upc-term-rapdif": locked,
        "upc-distmem": ("stale", "kill", "slow"),
        "ws-fencefree": ("stale",),
    }
    for variant, kinds in classes.items():
        for idle in ("poll", "park"):
            for kind in (None,) + kinds:
                if idle == "park" and kind not in (None, "kill", "slow"):
                    continue
                yield run(variant, idle=idle,
                          faults=kind and SEND_PLANS[kind])
    # the re-raid: mpi-ws's second REQUEST, a lock-based second claim
    for variant in ("mpi-ws", "upc-term"):
        yield run(variant, adversaries="dup@1,2")


def _streams():
    """Service streams on the task forest: load, admission policy,
    idle strategy, a kill storm, the task engine."""
    for load in (0.6, 1.5):
        for policy in ("shed-oldest", "shed-newest", "block"):
            for idle in ("poll", "park"):
                for storm in (None, "storm(kill:2@t=0.05ms..0.2ms)"):
                    for engine in ("splitmix", "sha1"):
                        if engine == "sha1" and policy != "shed-oldest":
                            continue
                        yield serve(idle=idle, faults=storm,
                                    fault_seed=7 if storm else 0, load=load,
                                    n_tasks=100, queue_capacity=8,
                                    policy=policy, task_engine=engine)


def _refused(variant, scenario=None, **config):
    """Whether ``variant`` cannot run ``config`` (overlaid with
    ``scenario`` at 8 threads): the config refuses itself (park admits
    fail-stop plans only) or the variant's gate refuses it."""
    try:
        cfg = WsConfig(**config)
    except ConfigError:
        return True
    if scenario is not None:
        cfg = get_scenario(scenario).apply(cfg, 8)
    return get_algorithm(variant).refusal(cfg) is not None


MONITOR_PLANS = {
    "stall": "stall=0.05",
    "drop": "drop=0.05",
    "stale": "stale=0.3,stale-window=40us",
    "storm": "storm(kill:2@t=0.05ms..0.2ms)",
}


def _monitored():
    """The fuzzer's cell space under the monitor: eight variants x
    {clean, stall, drop, stale, kill storm} x {poll, park} where the
    catalogue and the idle strategy admit the plan, canonical and
    tie-broken; the fuzz scenarios; the service cells."""
    for variant in VARIANTS:
        for idle in ("poll", "park"):
            for plan in (None, *MONITOR_PLANS):
                spec = plan and MONITOR_PLANS[plan]
                if _refused(variant, idle_strategy=idle,
                            faults=spec and parse_fault_spec(spec, seed=0)):
                    continue
                for sched in (None, 1):
                    kw = dict(idle_strategy=idle)
                    if sched is not None:
                        kw["schedule_seed"] = sched
                    if spec:
                        kw.update(fault_spec=spec, fault_seed=3)
                    yield check(variant, **kw)
    for scenario in ("numa-8x-uniform", "numa-8x-locality", "hostile-mix"):
        for variant in ("upc-distmem", "upc-term", "ws-fencefree",
                        "tree-split"):
            if not _refused(variant, scenario):
                for idle in ("poll", "park"):
                    yield check(variant, scenario=scenario,
                                idle_strategy=idle, schedule_seed=0)
    for idle in ("park", "poll"):
        for storm in (False, True):
            for sched in (None, 0):
                kw = dict(idle_strategy=idle)
                if sched is not None:
                    kw["schedule_seed"] = sched
                if storm:
                    kw.update(fault_spec=MONITOR_PLANS["storm"], fault_seed=7)
                yield check(**kw)
    # duplicates ledgered (the dup_extra re-sums)
    yield check("ws-fencefree", fault_spec=MONITOR_PLANS["stale"],
                fault_seed=0)
    # an owner killed while it holds its own stack lock (the Working
    # state's uncontended bracket): its death must free the lock
    yield check("upc-sharedmem", chunk_size=2,
                fault_spec="stall=0.2,kill=2@526.076us")


# -- planted corruption ---------------------------------------------------------

def _tamper(mutate, applies=lambda algo, rank: True):
    """``mutate(algo, rank)`` where ``applies``; True once it did."""
    def tamper(algo, rank):
        return bool(applies(algo, rank)) and (mutate(algo, rank), True)[1]
    return tamper


def _stack(mutate, applies=lambda stack: True):
    return _tamper(lambda algo, rank: mutate(algo.stacks[rank]),
                   lambda algo, rank: applies(algo.stacks[rank]))


def _bump(name, k):
    return lambda obj: setattr(obj, name, getattr(obj, name) + k)


def _copied(source):
    """A descriptor from ``source(algo, rank)`` pushed onto the rank's
    stack a second time, every ledger kept consistent: only the
    ownership scan can object."""
    def mutate(algo, rank):
        _bump("pushes", 1)(algo.stacks[rank])
        algo.stacks[rank].local.append(source(algo, rank))
    return _tamper(mutate, lambda algo, rank: source(algo, rank) is not None)


def _another_stacks_node(algo, rank):
    donor = next((s for s in algo.stacks
                  if s is not algo.stacks[rank] and s.local), None)
    return donor and donor.local[-1]


def _a_granted_responses_node(algo, rank):
    return next((nodes[0] for nodes in
                 algo.machine.faults._responses.values() if nodes), None)


def _dup_extra_bumped(algo, rank):
    node = next(iter(algo.dup_extra))
    algo.dup_extra[node] += 1


def _shed(svc):
    svc.shed["deadline"] += 1


COUNTERS = ("pushes", "pops", "released_nodes", "reacquired_nodes",
            "stolen_from_me_nodes")
_SHARED = (lambda stack: stack.shared)
_DUPS = (lambda algo, rank: algo.dup_extra)
TAMPERS = {
    **{f"{name}{k:+d}": _stack(_bump(name, k))
       for name in COUNTERS for k in (3, -2)},
    "local-pop": _stack(lambda s: s.local.pop(), lambda s: s.local),
    "local-append": _stack(lambda s: s.local.append(0)),
    "chunk-removed": _stack(lambda s: s.shared.pop(), _SHARED),
    "chunk-added": _stack(lambda s: s.shared.append([0, 0])),
    # the lengths are unchanged: seen by the next full pass, not at once
    "chunk-resized-in-place": _stack(lambda s: s.shared[0].append(0),
                                     _SHARED),
    "chunk-swapped-in-place": _stack(
        lambda s: s.shared.__setitem__(0, s.shared[0][:-1]), _SHARED),
    "dup-extra-bumped": _tamper(_dup_extra_bumped, _DUPS),
    "dup-extra-dropped": _tamper(lambda a, r: a.dup_extra.popitem(), _DUPS),
    "dup-work-bumped": _tamper(lambda a, r: _bump("dup_work", 1)(a)),
    "dup-nodes-bumped": _tamper(
        lambda a, r: setattr(a, "dup_nodes", a.dup_work + 1)),
    "lost-stack-nodes": _tamper(
        lambda a, r: _bump("_lost_stack_nodes", 1)(a.machine.faults)),
    "loss-counter": _tamper(
        lambda a, r: _bump("lost_nodes", 1)(a.machine.faults.counters)),
    **{f"service-{name}": _tamper(
        lambda a, r, name=name: _bump(name, 1)(a.service))
       for name in ("admitted", "completed", "lost_tasks", "running",
                    "retry_pending", "door_blocked")},
    "service-shed": _tamper(lambda a, r: _shed(a.service)),
    "descriptor-copied": _copied(_another_stacks_node),
    "response-copied": _copied(_a_granted_responses_node),
}


STACK_TAMPERS = [*(f"{name}{k:+d}" for name in COUNTERS for k in (3, -2)),
                 "local-pop", "local-append", "chunk-removed", "chunk-added",
                 "chunk-resized-in-place", "chunk-swapped-in-place"]


def _planted():
    """Corruptions on the emitting rank and on a bystander, just before
    (#63) and just after (#65) the full pass of emit #64."""
    for name in STACK_TAMPERS:
        for rank in (0, 3):
            for emit in (62, 64):
                yield check("upc-distmem", tamper=(name, rank, emit))
    # an in-place corruption that really lags the emit it landed on
    for emit in range(40, 120, 7):
        yield check("upc-distmem", tamper=("chunk-resized-in-place", 3, emit))
    for name in ("dup-extra-bumped", "dup-extra-dropped", "dup-work-bumped",
                 "dup-nodes-bumped"):
        for emit in (126, 128):
            yield check("ws-fencefree", fault_spec=MONITOR_PLANS["stale"],
                        fault_seed=0, tamper=(name, 0, emit))
    for name in ("lost-stack-nodes", "loss-counter"):
        for emit in (62, 64):
            yield check("upc-distmem", fault_spec=MONITOR_PLANS["stall"],
                        tamper=(name, 0, emit))
    for name in TAMPERS:
        if name.startswith("service-"):
            for emit in (62, 64):
                yield check(tamper=(name, 0, emit))
    for rank in (0, 3):
        yield check("upc-distmem", tamper=("descriptor-copied", rank, 40))
    yield check("upc-distmem", fault_spec="storm(kill:2@t=0.05ms..0.2ms)",
                fault_seed=3, tamper=("response-copied", 0, 0))


def _cross_backend():
    """What the compiled backend was first held to: Figure 4's tree at
    16 threads, the park matrix, free references, service loads.  With
    the ledger's k in {2, 8, 32} (``bench/pins.json``), the Figure 4
    cells here cover the whole ``fig4[quick]`` sweep."""
    for variant in ("upc-sharedmem", "upc-term", "upc-term-rapdif",
                    "upc-distmem", "upc-distmem-hier", "mpi-ws"):
        fig4 = variant != "upc-distmem-hier"
        for k in (1, 4, 8, 16, 64) if fig4 else (8,):
            yield run(variant, tree="t1-quick", threads=16, chunk_size=k,
                      traced=False)
        if fig4:
            yield run(variant, net="free-references")
        if variant != "upc-sharedmem":
            for k in (2, 8):
                yield run(variant, threads=16, chunk_size=k, idle="park")
    for idle in ("poll", "park"):
        for policy in ("block", "shed-oldest", "shed-newest"):
            for rate in (1e5, 4e6):
                yield serve(threads=16, idle=idle, seed=0, rate=rate,
                            queue_capacity=8, policy=policy, deadline=0.0,
                            service_seed=0)


def _corpus():
    cells = {}
    for source in (_working, _searching, _idle, _messages_and_claims,
                   _streams, _monitored, _planted, _cross_backend):
        for cell in source():
            seen = cells.setdefault(cell.name, cell)
            seen.traced = seen.traced or cell.traced
    return list(cells.values())


CELLS = _corpus()


# -- one cell, observed -----------------------------------------------------------

def sha1(value) -> str:
    return hashlib.sha1(repr(value).encode()).hexdigest()


class Spy(TraceSink):
    """A sink that keeps the algorithm instance (the existing
    ``attach_algorithm`` hook)."""

    def attach_algorithm(self, algo):
        self.algo = algo


class TamperingMonitor(InvariantMonitor):
    """The monitor ``check_run`` builds, with the cell's tamper applied
    ahead of it, once."""

    def __init__(self, tamper=None):
        super().__init__()
        self.tamper = tamper
        self.tampered_at = None

    def emit(self, time, thread, kind, fields=()):
        if self.tamper is not None and self.tampered_at is None \
                and self.algo is not None:
            name, rank, emit = self.tamper
            n = len(self.algo.stacks)
            rank = ((thread if 0 <= thread < n else 0) + rank) % n
            if self._emits >= emit and TAMPERS[name](self.algo, rank):
                self.tampered_at = self._emits + 1
        super().emit(time, thread, kind, fields)


STAT_FIELDS = [f.name for f in dataclasses.fields(ThreadStats)
               if f.name != "timer"]


def counters(algo) -> str:
    """SHA-1 of every per-thread counter and state timer, every lock's
    and ``work_avail`` slot's counters and the idle gate's."""
    locks = [lk.fifo for name in ("stack_locks", "req_locks")
             for lk in getattr(algo, name, ())]
    gate = algo._gate
    return sha1((
        [([getattr(st, name) for name in STAT_FIELDS],
          sorted(st.timer.times.items()), st.timer.transitions)
         for st in algo.stats],
        [(f.acquisitions, f.contended_acquisitions, repr(f.busy_time))
         for f in locks],
        [slot.writes for slot in getattr(algo, "work_avail", ())],
        gate and (gate.parks, gate.wakes, gate.deaths)))


def _faults(algo):
    """The fault counters that moved (None for a fault-free run)."""
    faults = algo.machine.faults
    return faults and {key: value for key, value in
                       dataclasses.asdict(faults.counters).items() if value}


def _config(kw):
    adversaries = kw.get("adversaries")
    return WsConfig(
        chunk_size=kw["chunk_size"], idle_strategy=kw["idle_strategy"],
        adversaries=adversaries and parse_adversaries(adversaries,
                                                       kw["threads"]))


def _service(kw):
    rate = kw["rate"]
    if "load" in kw:  # a share of the pool's capacity
        rate = kw["load"] * kw["threads"] / (
            ServiceConfig().expected_task_nodes()
            * get_preset("kittyhawk").node_visit_time)
    return ServiceConfig(
        arrivals=ArrivalProcess(rate=rate), n_tasks=kw["n_tasks"],
        queue_capacity=kw["queue_capacity"], policy=kw["policy"],
        deadline=kw["deadline"], max_retries=kw["max_retries"],
        task_engine=kw["task_engine"], seed=kw["service_seed"])


def observe(cell: Cell, fastpath: str = "pure", traced: bool = False):
    """Run ``cell`` and return ``(entry, algorithm, result)``: the entry
    is what ``schedules.json`` holds for it (without the record fields
    when ``traced`` is False); the result is None for a checked run that
    raised."""
    if cell.api.startswith("check"):
        return _observe_checked(cell, fastpath)
    kw = {**(RUN_DEFAULTS if cell.api == "run_experiment"
             else SERVE_DEFAULTS), **cell.kwargs}
    spy = Spy(enabled=traced)
    common = dict(threads=kw["threads"], config=_config(kw), seed=kw["seed"],
                  tracer=spy, fastpath=fastpath,
                  faults=kw["faults"] and parse_fault_spec(
                      kw["faults"], seed=kw["fault_seed"]))
    if cell.api == "run_service":
        result = run_service(_service(kw), **common)
    else:
        result = run_experiment(kw["variant"], TREES[kw["tree"]],
                                net=kw["net"] and NETS[kw["net"]], **common)
    algo = spy.algo
    entry = dict(
        events=result.engine_events, sim_time=repr(result.sim_time),
        nodes=result.total_nodes, lost_work=result.lost_work,
        dup_work=getattr(result, "dup_work", 0), faults=_faults(algo),
        counters=counters(algo))
    if cell.api == "run_service":
        svc = algo.service
        entry["service"] = dict(
            admitted=result.admitted, completed=result.completed,
            shed=result.shed_total, lost_tasks=result.lost_tasks,
            retries=result.retries,
            sha1=sha1((sorted(result.shed.items()), result.deadline_miss,
                       result.block_waits, result.queue_peak, svc.latencies,
                       svc.depth_timeline, list(svc.workload.task_nodes),
                       list(svc.workload.outstanding))))
    if traced:
        records = spy.records
        entry["records"] = dict(
            kinds=dict(sorted(Counter(r.kind for r in records).items())),
            # marshal format 2 has no back-references: equal records
            # hash equal however their objects were built
            sha1=hashlib.sha1(marshal.dumps(list(map(tuple, records)),
                                            2)).hexdigest())
    return entry, algo, result


def _observe_checked(cell: Cell, fastpath: str):
    """A monitor cell resolves its backend as any run does: the pure
    leg forces it with ``REPRO_FASTPATH=0``, the compiled leg leaves it
    to auto."""
    built = []

    def monitor():
        built.append(InvariantMonitor() if cell.tamper is None
                     else TamperingMonitor(cell.tamper))
        return built[-1]

    real, check_runner.InvariantMonitor = (check_runner.InvariantMonitor,
                                           monitor)
    forced = {"REPRO_FASTPATH": "0"} if fastpath == "pure" else {}
    try:
        with mock.patch.dict(os.environ, forced):
            if cell.api == "check_run":
                out = check_run(**cell.kwargs)
            else:
                out = check_service_run(**cell.kwargs)
    finally:
        check_runner.InvariantMonitor = real
    mon = built[-1]
    algo = mon.algo
    entry = dict(
        events=out.engine_events, sim_time=repr(out.sim_time),
        nodes=out.total_nodes, lost_work=out.lost_work,
        dup_work=out.dup_work, faults=_faults(algo),
        counters=counters(algo), monitor=out.monitor)
    if not out.ok:
        entry["verdict"] = dict(type=out.error_type, message=out.error,
                                emit=mon._emits,
                                tampered_at=getattr(mon, "tampered_at", None))
    return entry, algo, out.result
