"""Checked-cell grids: the runs behind EXPERIMENTS.md's E9-E15.

A cell is one run through :func:`repro.check.runner._checked` (its
fault plan, a fresh monitor, every ``ReproError`` folded into the
outcome) and an untraced replay that must execute the same schedule.
Nothing verifies in-run: that a cell's counts balance is a claim
(:attr:`Cell.conserved`) of :mod:`repro.harness.experiments`.  A table
renders only its completed cells; the claims name the rest.  Imported
on an entry's first run, not by ``import repro.harness``.
"""

from __future__ import annotations

import itertools
import statistics
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.check.invariants import InvariantMonitor
from repro.check.runner import VARIANTS, _checked, bind, tie_break
from repro.errors import ReproError
from repro.faults.plan import parse_fault_spec
from repro.harness.figures import markdown_table, run_row
from repro.harness.runner import expected_node_count, run_experiment
from repro.metrics.states import WORKING
from repro.net.presets import get_preset
from repro.obs import TraceSink
from repro.obs.analysis import state_occupancy, steal_latencies
from repro.scenarios import SCENARIOS, get_scenario, parse_adversaries
from repro.service import ArrivalProcess, ServiceConfig, run_service
from repro.uts.params import TreeParams
from repro.ws.algorithms import get_algorithm
from repro.ws.config import WsConfig

__all__ = ["Cell", "CellTable", "e9", "e10", "e11", "e12", "e13", "e14",
           "e15", "e15_cells"]

Progress = Optional[Callable[[str], None]]

#: The errors of a run that did not terminate: it spun to its event
#: budget, or every live process blocked.
TERMINATION_ERRORS = ("EventLimitExceeded", "DeadlockError")


@dataclass
class Cell:
    """One run of a grid, named by ``where``, and what it showed."""

    where: dict
    #: The tree's node count the run must account for; ``None`` for a
    #: service stream, whose task ledger balances by itself.
    oracle: Optional[int]
    result: Any = None
    error_type: str = ""
    error: str = ""
    #: The untraced replay executed the same schedule (``None``: the
    #: run raised, so there was nothing to replay).
    replayed: Optional[bool] = None
    #: What the monitor or the trace measured beside the result.
    measured: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.error_type

    @property
    def terminated(self) -> bool:
        return self.error_type not in TERMINATION_ERRORS

    @property
    def duplicated(self) -> bool:
        """The run completed with ledgered duplicated work."""
        return self.ok and getattr(self.result, "dup_work", 0) > 0

    @property
    def conserved(self) -> bool:
        """Every node (or task) is accounted for: ``nodes + lost ==
        oracle + dup``, and nothing is lost unless a rank was killed."""
        r = self.result
        if self.oracle is None:
            balanced = r.admitted == r.completed + r.shed_total + r.lost_tasks
            lost = r.lost_tasks
        else:
            balanced = (r.total_nodes + r.lost_work
                        == self.oracle + getattr(r, "dup_work", 0))
            lost = r.lost_work
        killed = r.fault_counters is not None and r.fault_counters.threads_killed
        return balanced and (lost == 0 or bool(killed))

    def label(self) -> str:
        where = " ".join(f"{k}={v}" for k, v in self.where.items())
        if not self.ok:
            return f"{where}: {self.error_type}: {self.error}"
        r = self.result
        return (f"{where}: nodes={r.total_nodes} lost={r.lost_work} "
                f"t={r.sim_time * 1e3:.3f}ms events={r.engine_events}")

    def row(self) -> dict:
        """The cell as one flat JSON/CSV row."""
        return {**self.where, "ok": self.ok, "error": "" if self.ok
                else self.label(), "replayed": self.replayed,
                **(_counts(self.result) if self.ok else {}), **self.measured}


def _counts(r) -> dict:
    """A result's counts, flat: a service stream's ledger, or a batch
    run's paper metrics and work accounting; its fault counters."""
    counts = r.as_dict() if hasattr(r, "as_dict") else {
        **run_row(r), "total_nodes": r.total_nodes, "lost_work": r.lost_work,
        "dup_work": r.dup_work, "engine_events": r.engine_events}
    return {**counts, "faults": r.fault_counters.nonzero()
            if r.fault_counters else {}}


def _identity(r) -> tuple:
    """What two runs of one schedule share bit for bit."""
    return (repr(_counts(r)), [(s.nodes_visited, s.steal_attempts,
                                s.steals_ok, s.nodes_stolen)
                               for s in r.per_thread])


def _unmonitored() -> None:
    """A cell whose contract is its counts alone: no monitor."""
    return None


def checked_cell(where: dict, variant: str, run: Callable[..., Any],
                 oracle: Optional[int], fault_spec: Optional[str] = None,
                 fault_seed: int = 0, monitor=None,
                 progress: Progress = None,
                 schedule_seed: Optional[int] = None,
                 defer: Sequence[int] = ()) -> Cell:
    """``run`` (a bound ``run_experiment`` / ``run_service``) as a
    checked cell under ``monitor()`` (default: an
    :class:`InvariantMonitor`) and the schedule ``schedule_seed`` or
    ``defer`` picks, then replayed untraced on the default backend under
    a fresh copy of the same tie-break."""
    out = _checked(variant, run, schedule_seed, defer, fault_spec,
                   fault_seed, monitor)
    cell = Cell(where, oracle, out.result, out.error_type or "",
                out.error or "", measured=out.monitor)
    if out.ok:
        plan = parse_fault_spec(fault_spec, seed=fault_seed) if fault_spec \
            else None
        try:
            cell.replayed = _identity(run(
                faults=plan, tie_break=tie_break(schedule_seed, defer))
            ) == _identity(out.result)
        except ReproError:
            cell.replayed = False
    if progress is not None:
        progress(cell.label())
    return cell


@dataclass
class CellTable:
    """A grid's cells, rendered by its entry's ``render``."""

    scale: str
    cells: List[Cell]
    render: Callable[["CellTable"], str]

    def done(self, **where) -> List[Cell]:
        """The completed cells at ``where`` (every key of it matching)."""
        return [c for c in self.cells if c.ok and all(
            c.where.get(k) == v for k, v in where.items())]

    def cell(self, **where) -> Cell:
        """The one completed cell at ``where``; ``KeyError`` if it is
        not in the grid or raised (a claim reads that as a verdict)."""
        found = self.done(**where)
        if len(found) != 1:
            raise KeyError(f"no completed cell at {where}")
        return found[0]

    def markdown(self) -> str:
        return self.render(self)

    def to_dict(self) -> dict:
        return {"scale": self.scale, "runs": [c.row() for c in self.cells]}


def _ms(cell: Cell) -> str:
    return f"{cell.result.sim_time * 1e3:.3f}"


#: The small tree of the fuzz cells (``check_run``'s default), the late
#: kills and the quick scenario and ablation grids.
SMALL = TreeParams.binomial(b0=64, m=2, q=0.48, seed=1)
#: The scenario and ablation grids' tree at full scale.
WIDE = TreeParams.binomial(b0=500, q=0.124, m=8, seed=0)

# --- E9: resilience sweep ----------------------------------------------------

E9_TREE = TreeParams.binomial(b0=200, q=0.49, seed=0)
#: (fault class, plan, the variants whose recovery paths it exercises).
FAULT_CLASSES = (
    ("message-loss", "drop=0.05,dup=0.05,delay=0.2", ("mpi-ws",)),
    ("fail-stop", "kill=3@50us,kill=5@120us",
     ("mpi-ws", "upc-distmem", "upc-sharedmem")),
    ("stall", "stall=0.3,stale=0.2",
     ("upc-distmem", "upc-sharedmem", "upc-term-rapdif")),
)
#: The late-kill class: one kill per cell, at a fraction of the cell's
#: own fault-free ``sim_time`` late enough to land inside termination.
LATE_KILL_VARIANTS = ("upc-sharedmem", "upc-term", "upc-term-rapdif",
                      "upc-distmem", "upc-distmem-hier", "mpi-ws")
LATE_KILL_FRACTIONS = (0.9, 0.95, 0.97, 0.98, 0.99, 0.995, 0.999)
#: A late-kill cell that has not terminated by then never will (they
#: need under 5,000 events; a hang spins on the daemons).
LATE_KILL_MAX_EVENTS = 300_000
_LATE = dict(tree_seeds=(1, 2, 3), threads=(4, 6),
             fractions=LATE_KILL_FRACTIONS, idles=("poll", "park"))
E9_GRID = {
    "test": dict(seeds=(0,), tree_seeds=(1,), threads=(2,),
                 fractions=(0.99,), idles=("poll",), loss=(0.05,)),
    "quick": dict(seeds=(0, 1, 2), **_LATE, loss=()),
    "full": dict(seeds=(0, 1, 2), **_LATE, loss=(0.05, 0.1, 0.2, 0.3)),
}


def e9(scale: str, progress: Progress = None) -> CellTable:
    """Every fault class on the variants it exercises, the late kills,
    and (where the scale has one) mpi-ws's message-loss curve; no
    monitor: the contract is the counts, the replay and termination."""
    return CellTable(scale, [
        checked_cell(where, where["algorithm"], run, oracle, spec, seed,
                     _unmonitored, None if "tree_seed" in where else progress)
        for where, run, oracle, spec, seed in _e9_cells(E9_GRID[scale])],
        _e9_table)


def _e9_cells(grid: dict):
    """``(where, run, oracle, fault spec, fault seed)`` of each E9 cell."""
    oracle = expected_node_count(E9_TREE)
    on_tree = partial(run_experiment, tree=E9_TREE, threads=8,
                      config=WsConfig(chunk_size=4))
    for klass, spec, variants in FAULT_CLASSES:
        for variant, seed in itertools.product(variants, grid["seeds"]):
            yield ({"group": klass, "spec": spec, "algorithm": variant,
                    "seed": seed}, partial(on_tree, variant), oracle, spec,
                   seed)
    mpi_ws = partial(on_tree, "mpi-ws")
    if grid["loss"]:
        yield ({"group": "loss", "algorithm": "mpi-ws", "rate": 0,
                "seed": 0}, mpi_ws, oracle, None, 0)
    for rate, seed in itertools.product(grid["loss"], grid["seeds"]):
        yield ({"group": "loss", "algorithm": "mpi-ws", "rate": rate,
                "seed": seed}, mpi_ws, oracle, f"drop={rate:g},dup={rate:g}",
               seed)
    for variant, tree_seed, threads, idle in itertools.product(
            LATE_KILL_VARIANTS, grid["tree_seeds"], grid["threads"],
            grid["idles"]):
        tree = TreeParams.binomial(b0=64, m=2, q=0.48, seed=tree_seed)
        run = partial(run_experiment, variant, tree=tree, threads=threads,
                      config=WsConfig(chunk_size=4, idle_strategy=idle))
        horizon = run().sim_time
        for rank, fraction in itertools.product(range(1, threads),
                                                grid["fractions"]):
            spec = f"kill={rank}@{fraction * horizon:.12f}"
            yield ({"group": "late-kill", "algorithm": variant,
                    "tree_seed": tree_seed, "threads": threads, "idle": idle,
                    "spec": spec},
                   partial(run, max_events=LATE_KILL_MAX_EVENTS),
                   expected_node_count(tree), spec, 0)


def _e9_table(t: CellTable) -> str:
    grid = E9_GRID[t.scale]
    lines = [
        f"{E9_TREE.describe()}; {expected_node_count(E9_TREE):,} nodes; "
        "8 threads, k=4, Kitty Hawk model", "",
        markdown_table(["fault class", "spec", "algorithm", "seed",
                        "nodes + lost", "mechanisms that fired"], [
            [klass, f"`{spec}`", c.where["algorithm"], c.where["seed"],
             f"{c.result.total_nodes} + {c.result.lost_work}", ", ".join(
                 f"{k} {v}" for k, v in c.result.fault_counters.nonzero(
                 ).items())]
            for klass, spec, _ in FAULT_CLASSES for c in t.done(group=klass)]),
        "", "Late kills (one per cell, at "
        f"{', '.join(map(str, grid['fractions']))} of the cell's own "
        "fault-free `sim_time`, on every killable rank; binomial(b0=64, m=2, "
        f"q=0.48) at seeds {', '.join(map(str, grid['tree_seeds']))}, "
        f"{' and '.join(map(str, grid['threads']))} threads, "
        f"{' and '.join(grid['idles'])}; a {LATE_KILL_MAX_EVENTS:,}-event "
        "budget):", "",
        markdown_table(["variant", "cells", "clean"], [
            [v, len([c for c in t.cells if c.where["group"] == "late-kill"
                     and c.where["algorithm"] == v]),
             sum(c.conserved and c.replayed
                 for c in t.done(group="late-kill", algorithm=v))]
            for v in LATE_KILL_VARIANTS])]
    if grid["loss"]:
        base = t.cell(group="loss", rate=0).result.sim_time
        runs = [[c.result for c in t.done(group="loss", rate=r)]
                for r in grid["loss"]]

        def mean(of, fmt):
            return [format(statistics.mean(map(of, rs)), fmt) for rs in runs]

        lines += ["", "Efficiency vs message-loss rate (mpi-ws, symmetric "
                  "`drop=R,dup=R`; relative efficiency is the mean over "
                  "fault seeds of fault-free `sim_time` / faulted "
                  "`sim_time`; drops and timeouts are means per run):", "",
                  markdown_table(["loss rate R", 0, *grid["loss"]], [
                      ["relative efficiency", "1.00",
                       *mean(lambda r: base / r.sim_time, ".2f")],
                      ["drops / run", 0, *mean(
                          lambda r: r.fault_counters.msgs_dropped, ".0f")],
                      ["steal timeouts / run", 0, *mean(
                          lambda r: r.fault_counters.steal_timeouts, ".0f")]])]
    return "\n".join(lines)


# --- E10: trace-driven steal analysis -----------------------------------------

E10_Q = {"test": (0.30, 0.35, 0.40), "quick": (0.44, 0.47, 0.485),
         "full": (0.44, 0.47, 0.485)}


def e10(scale: str, progress: Progress = None) -> CellTable:
    """upc-distmem traced at three tree sizes, read back through
    :mod:`repro.obs.analysis`, and replayed untraced."""
    cells = []
    for q in E10_Q[scale]:
        tree = TreeParams.binomial(b0=2000, m=2, q=q, seed=559)
        run = partial(run_experiment, "upc-distmem", tree=tree, threads=8,
                      chunk_size=8)
        sink = TraceSink()
        res = run(tracer=sink)
        occupancy = state_occupancy(sink.events(), res.n_threads,
                                    res.sim_time)
        attempts = steal_latencies(sink.events())
        cells.append(Cell({"q": q}, expected_node_count(tree), res,
                          replayed=_identity(run()) == _identity(res),
                          measured={
            "trace_working_share": sum(o[WORKING] for o in occupancy.values())
            / (res.n_threads * res.sim_time),
            "median_ok_latency_us": statistics.median(
                dt for kind, dt in attempts if kind == "ok") * 1e6,
            "attempts": dict(Counter(kind for kind, _ in attempts
                                     ).most_common())}))
        if progress is not None:
            progress(cells[-1].label())
    return CellTable(scale, cells, _e10_table)


def _e10_table(t: CellTable) -> str:
    return "\n".join([
        "upc-distmem, 8 threads, k=8, Kitty Hawk model, binomial trees "
        "b0=2000, m=2, r=559 at three q:", "",
        markdown_table(
            ["q", "nodes", "working share (trace)",
             "working share (counters)", "steals",
             "median steal latency (ok)", "attempt outcomes"],
            [[c.where["q"], f"{c.result.total_nodes:,}",
              f"{100 * c.measured['trace_working_share']:.1f}%",
              f"{100 * c.result.working_fraction:.1f}%",
              c.result.stats.steals_ok,
              f"{c.measured['median_ok_latency_us']:.1f} µs",
              ", ".join(f"{n} {k}" for k, n in c.measured["attempts"].items())]
             for c in t.done()])])


# --- E11: O(active) engine scaling --------------------------------------------

E11_TREE = TreeParams.binomial(b0=100, m=2, q=0.48, seed=1)
#: (threads, idle strategy) per scale; poll stops at 1024 threads (its
#: host cost grows about quadratically on an idle machine).
E11_GRID = {
    "test": ((64, "park"), (64, "poll")),
    "quick": ((1024, "park"), (1024, "poll")),
    "full": ((256, "park"), (256, "poll"), (1024, "park"), (1024, "poll"),
             (4096, "park")),
}
_QUEUE = ("median_queue", "p95_queue", "peak_queue", "parks", "wakes")


class QueueSampler(InvariantMonitor):
    """The invariant monitor, also sampling the engine's pending-event
    count at every emit; the gate's parks and wakes ride along."""

    def __init__(self) -> None:
        super().__init__()
        self.queue: List[int] = []

    def emit(self, time: float, thread: int, kind: str,
             fields: tuple = ()) -> None:
        super().emit(time, thread, kind, fields)
        if self.machine is not None:
            self.queue.append(self.machine.sim.queue_size)

    def summary(self) -> dict:
        q = sorted(self.queue) or [0]
        gate = getattr(self.algo, "_gate", None)
        return {**super().summary(), **dict(zip(_QUEUE, (
            q[len(q) // 2], q[len(q) * 95 // 100], q[-1],
            gate.parks if gate is not None else 0,
            gate.wakes if gate is not None else 0)))}


def e11(scale: str, progress: Progress = None) -> CellTable:
    """upc-distmem on a tiny tree across a large machine, parked and
    polling, under the queue-sampling monitor."""
    oracle = expected_node_count(E11_TREE)
    return CellTable(scale, [checked_cell(
        {"threads": threads, "idle": idle}, "upc-distmem",
        partial(run_experiment, "upc-distmem", tree=E11_TREE,
                threads=threads,
                config=WsConfig(chunk_size=4, idle_strategy=idle),
                max_events=5_000_000),
        oracle, monitor=QueueSampler, progress=progress)
        for threads, idle in E11_GRID[scale]], _e11_table)


def _e11_table(t: CellTable) -> str:
    return "\n".join([
        f"{E11_TREE.describe()}; {expected_node_count(E11_TREE):,} nodes; "
        "upc-distmem, k=4, Kitty Hawk model", "",
        markdown_table(
            ["threads", "idle", "engine events", "sim ms", "median queue",
             "p95 queue", "peak queue", "parks", "wakes"],
            [[c.where["threads"], c.where["idle"], c.result.engine_events,
              _ms(c), *(c.measured[k] for k in _QUEUE)] for c in t.done()])])


# --- E12: open-system service mode --------------------------------------------

LOADS = (0.3, 0.6, 0.9, 1.2, 1.5)
STORM_LOAD = 0.9
#: (threads, tasks, offered loads) per scale; each adds a kill storm at
#: ``STORM_LOAD`` that kills 1/32 of the pool (at least two ranks).
E12_GRID = {"test": (8, 60, (1.5,)), "quick": (64, 600, LOADS),
            "full": (256, 1200, LOADS)}
TASK_GRAN = 10
QUEUE_CAPACITY = 64


def _capacity(threads: int) -> float:
    """The pool's analytic task throughput ceiling (tasks/s)."""
    base = ServiceConfig(task_gran=TASK_GRAN, seed=3)
    return threads / (base.expected_task_nodes() * TASK_GRAN
                      * get_preset("kittyhawk").node_visit_time)


def _stream(threads: int, tasks: int, load: float) -> ServiceConfig:
    return ServiceConfig(
        arrivals=ArrivalProcess(rate=load * _capacity(threads)),
        n_tasks=tasks, queue_capacity=QUEUE_CAPACITY, policy="shed-oldest",
        deadline=600e-6, task_gran=TASK_GRAN, seed=3)


def e12(scale: str, progress: Progress = None) -> CellTable:
    """A parked pool's load-latency curve, plus a mid-stream kill storm."""
    threads, tasks, loads = E12_GRID[scale]
    # the victims die inside the stream's steady state: 20-50 % of it
    horizon = tasks / _stream(threads, tasks, STORM_LOAD).arrivals.rate
    storm = (f"storm(kill:{max(2, threads // 32)}"
             f"@t={0.2 * horizon:.3g}..{0.5 * horizon:.3g})")
    return CellTable(scale, [checked_cell(
        {"load": f"{load:g}" + (" + storm" if spec else "")}, "service-ws",
        partial(run_service, _stream(threads, tasks, load), threads=threads,
                config=WsConfig(chunk_size=2, idle_strategy="park"),
                max_events=5_000_000), None, spec, 7, progress=progress)
        for load, spec in [*((load, None) for load in loads),
                           (STORM_LOAD, storm)]], _e12_table)


def _e12_table(t: CellTable) -> str:
    threads, tasks, _ = E12_GRID[t.scale]
    return "\n".join([
        f"{threads} threads, Kitty Hawk model, {tasks} tasks of "
        "binomial(b0=4, m=2, q=0.45) at granularity "
        f"{TASK_GRAN}, Poisson arrivals at a fraction of the analytic "
        f"capacity {_capacity(threads):,.0f} tasks/s, queue capacity "
        f"{QUEUE_CAPACITY}, shed-oldest, 600 µs deadline:", "",
        markdown_table(
            ["load", "completed", "shed", "lost", "p50", "p99", "queue peak"],
            [[c.where["load"], f"{r.completed}/{r.admitted}",
              f"{100 * r.shed_fraction:.1f}%", r.lost_tasks,
              f"{r.lat_p50 * 1e6:.0f} µs", f"{r.lat_p99 * 1e6:.0f} µs",
              r.queue_peak] for c in t.done() for r in [c.result]])])


# --- E13: victim locality under NUMA asymmetry, with hostile workers ----------

NUMA_PRESETS = ("numa-2x", "numa-8x")
VICTIMS = ("uniform", "hierarchical")
ADVERSARIES = ("none", "slow:8@1", "greedy@1,2", "dup@1,2")
#: The catalog smoke's machine: every scenario on ``SMALL`` at 8 threads.
CATALOG_THREADS = 8
#: (tree, threads, variants, presets, adversaries) per scale.
E13_GRID = {
    "test": (SMALL, 4, ("upc-distmem",), ("numa-2x",), ("none", "dup@1,2")),
    "quick": (SMALL, 8, ("upc-distmem", "ws-fencefree", "tree-split"),
              NUMA_PRESETS, ADVERSARIES),
    "full": (WIDE, 16, ("upc-distmem",), NUMA_PRESETS, ADVERSARIES),
}


def _overlaid(scenario: str) -> WsConfig:
    """``scenario`` applied to the grids' base config at 8 threads (the
    catalog smoke's machine, and ``check_run``'s)."""
    return get_scenario(scenario).apply(WsConfig(chunk_size=4),
                                        CATALOG_THREADS)


def e13(scale: str, progress: Progress = None) -> CellTable:
    """Preset x victim policy x adversary per variant, then every
    catalog scenario; pairings a variant does not register are skipped."""
    tree, threads, variants, presets, adversaries = E13_GRID[scale]
    cells = [checked_cell(
        {"group": "matrix", "variant": variant, "preset": preset,
         "victim": victim, "adversary": adversary}, variant,
        partial(run_experiment, variant, tree=tree, threads=threads,
                preset=preset, max_events=5_000_000, config=config),
        expected_node_count(tree), progress=progress)
        for variant, victim, preset, adversary in itertools.product(
            variants, VICTIMS, presets, adversaries)
        for config in [WsConfig(
            chunk_size=4, victim_policy=victim, adversaries=None
            if adversary == "none" else parse_adversaries(adversary, threads))]
        if get_algorithm(variant).refusal(config) is None]
    cells += [checked_cell(
        {"group": "catalog", "variant": variant, "scenario": name}, variant,
        partial(run_experiment, variant, tree=SMALL, threads=CATALOG_THREADS,
                preset=get_scenario(name).preset, max_events=500_000,
                config=config),
        expected_node_count(SMALL), progress=progress)
        for name, variant in itertools.product(sorted(SCENARIOS), variants)
        for config in [_overlaid(name)]
        if get_algorithm(variant).refusal(config) is None]
    return CellTable(scale, cells, _e13_table)


def _e13_table(t: CellTable) -> str:
    tree, threads, variants, presets, adversaries = E13_GRID[t.scale]
    rows = []
    for variant, preset, adversary in itertools.product(
            variants, presets, adversaries):
        u, h = (t.done(variant=variant, preset=preset, adversary=adversary,
                       victim=victim) for victim in VICTIMS)
        if u and h:
            rows.append([variant, preset, adversary, _ms(u[0]), _ms(h[0]),
                         f"{u[0].result.sim_time / h[0].result.sim_time:.2f}×"])
    catalog = t.done(group="catalog")
    return "\n".join([
        f"{tree.describe()}; {expected_node_count(tree):,} nodes; "
        f"{threads} threads, k=4", "",
        markdown_table(["variant", "preset", "adversary", "uniform (ms)",
                        "locality (ms)", "locality speedup"], rows), "",
        f"Catalog smoke: {len(catalog)} scenario cells completed "
        f"({len(SCENARIOS)} scenarios x {', '.join(variants)} where the "
        f"variant registers the scenario's policies, "
        f"{CATALOG_THREADS} threads, {SMALL.describe()})."])


# --- E14: fence-free relaxed stealing vs the locked baseline ------------------

PROTOCOLS = ("upc-distmem", "ws-fencefree", "tree-split")
#: Stale-read plans, mildest first; only the stale-tolerant variants
#: run them (upc-distmem by denial and retry, ws-fencefree by ledgered
#: duplication).
STALE_AXIS = ("stale=0.1,stale-window=20us", "stale=0.2,stale-window=40us",
              "stale=0.4,stale-window=60us")
STALE_VARIANTS = ("upc-distmem", "ws-fencefree")
E14_GRID = {"test": (SMALL, 4, STALE_AXIS[1:2]),
            "quick": (SMALL, 8, STALE_AXIS), "full": (WIDE, 16, STALE_AXIS)}


def e14(scale: str, progress: Progress = None) -> CellTable:
    """Each protocol fault-free on a flat and a NUMA machine, then the
    stale-tolerant ones under widening stale-read windows."""
    tree, threads, axis = E14_GRID[scale]
    plans = [(preset, variant, None) for preset in ("kittyhawk", "numa-2x")
             for variant in PROTOCOLS]
    plans += [("kittyhawk", variant, spec) for spec in axis
              for variant in STALE_VARIANTS]
    return CellTable(scale, [checked_cell(
        {"preset": preset, "variant": variant, "plan": spec or "none"},
        variant, partial(run_experiment, variant, tree=tree, threads=threads,
                         preset=preset, chunk_size=4, max_events=5_000_000),
        expected_node_count(tree), spec, progress=progress)
        for preset, variant, spec in plans], _e14_table)


def _e14_table(t: CellTable) -> str:
    tree, threads, axis = E14_GRID[t.scale]
    oracle = expected_node_count(tree)
    cost = []
    for c in t.done(plan="none"):
        r, base = c.result, t.done(plan="none", preset=c.where["preset"],
                                   variant="upc-distmem")
        cost.append([c.where["preset"], f"`{c.where['variant']}`", _ms(c),
                     f"{base[0].result.sim_time / r.sim_time:.2f}×"
                     if base and base[0] is not c else "—",
                     f"{r.stats.steals_ok} / {r.stats.steal_attempts}",
                     r.dup_work])
    stale = [[plan if plan == "none" else f"`{plan}`", _ms(locked),
              _ms(fence), f"{fence.result.dup_work:,}",
              f"{100 * fence.result.dup_work / oracle:.0f}% of the tree"]
             for plan in ("none", *axis)
             for locked, fence in zip(*(t.done(preset="kittyhawk", variant=v,
                                               plan=plan)
                                        for v in STALE_VARIANTS))]
    return "\n".join([
        f"{tree.describe()}; {oracle:,} nodes; {threads} threads, k=4", "",
        markdown_table(["machine", "variant", "time (ms)", "vs `upc-distmem`",
                        "steals ok / attempts", "dup_work"], cost), "",
        "Stale-read degradation (kittyhawk; `upc-distmem` under the "
        "identical plans as control):", "",
        markdown_table(["fault plan", "`upc-distmem` (ms)",
                        "`ws-fencefree` (ms)", "fence-free `dup_work`",
                        "duplicated"], stale)])


# --- E15: the schedule-space fuzz --------------------------------------------

#: Fault plans each variant sweeps where its ``fault_classes`` admit them.
FUZZ_SPECS = ("kill=3@103us", "stall=0.3,stale=0.2")
#: The variants whose correctness lives in the stale-read window (the
#: fence-free multiplicity, tree-split's no-remote-read baseline) always
#: sweep the stale plans.
FUZZ_STALE_VARIANTS = ("ws-fencefree", "tree-split")
FUZZ_STALE_SPECS = ("stale=0.3,stale-window=40us",
                    "stale=0.5,stale-window=80us")
#: The scenario cells' variants: the request/response protocol the
#: adversaries target, the lock-based steal, the unsynchronised claim
#: race and the barrier/rebalance path.
SCENARIO_VARIANTS = ("upc-distmem", "upc-term", "ws-fencefree", "tree-split")
#: One NUMA pair and the hostile mix.
FUZZ_SCENARIOS = ("numa-8x-uniform", "numa-8x-locality", "hostile-mix")
#: The service cells' kill storm (fault seed 7), parked and polling.
SERVICE_STORM = "storm(kill:2@t=0.05ms..0.2ms)"
#: The conservation grid, canonical schedule, on binomial(b0=30, m=2,
#: q=0.45): (tree seeds, threads, chunk sizes, presets).
CONSERVATION = ((0, 1, 2), (1, 3, 8), (1, 4, 16), ("kittyhawk", "altix"))
#: Per scale: random schedules and deferral points per (variant, plan),
#: the fault plans and their seeds, the scenarios and their random
#: schedules, the service cells' random schedules, the conservation grid.
E15_GRID = {
    "test": dict(seeds=1, defers=1, specs=FUZZ_SPECS[:1], fault_seeds=(0,),
                 scenarios=FUZZ_SCENARIOS[2:], scenario_seeds=0,
                 service_seeds=0,
                 conservation=((0,), (3,), (4,), ("kittyhawk",))),
    "quick": dict(seeds=50, defers=40, specs=FUZZ_SPECS, fault_seeds=(0,),
                  scenarios=FUZZ_SCENARIOS, scenario_seeds=2,
                  service_seeds=3, conservation=CONSERVATION),
    "full": dict(seeds=500, defers=400, specs=FUZZ_SPECS, fault_seeds=(0, 1),
                 scenarios=tuple(sorted(SCENARIOS)), scenario_seeds=2,
                 service_seeds=3, conservation=CONSERVATION),
}


def _schedules(cell: dict, seeds: int) -> List[dict]:
    """``cell`` under the canonical schedule, then ``seeds`` random ones."""
    return [cell, *({**cell, "schedule_seed": s} for s in range(seeds))]


#: One plan per fault class, in ``FaultPlan.fault_classes`` order: the
#: classes a variant admits are those whose plan its gate lets through.
FAULT_PROBES = {"drop": "drop=0.5", "dup": "dup=0.5", "delay": "delay=0.5",
                "stall": "stall=0.5", "stale": "stale=0.5",
                "kill": "kill=1@1us", "slow": "slow=1@2"}


def _refusal(variant: str, spec: str) -> Optional[str]:
    """The gate's answer for ``variant`` under the fault plan ``spec``."""
    return get_algorithm(variant).refusal(
        WsConfig(faults=parse_fault_spec(spec, seed=0)))


def _tolerated(variant: str) -> str:
    """The fault classes ``variant``'s gate lets through, comma-joined."""
    return ", ".join(c for c, probe in FAULT_PROBES.items()
                     if not _refusal(variant, probe))


def e15_cells(scale: str) -> Tuple[List[Tuple[dict, dict]], List[str]]:
    """E15's ``(where, cell)`` pairs at ``scale``, ``cell`` the
    ``check_run`` (``check_service_run`` without a variant) keywords,
    and the pairings skipped.  Runs only each variant's canonical
    schedule: the deferral points spread over 1.2x its event count
    (scheduled sequence numbers outrun dispatched events: stale
    wake-ups are scheduled but skipped)."""
    grid = E15_GRID[scale]
    cells: List[Tuple[dict, dict]] = []

    def add(mode: str, variant: str, batch: List[dict]) -> None:
        cells.extend(({"mode": mode, "variant": variant}, c) for c in batch)

    skipped = [f"{variant} × `{spec}` (admits only {_tolerated(variant)})"
               for variant in VARIANTS for spec in grid["specs"]
               if _refusal(variant, spec)]
    for variant in VARIANTS:
        specs = [s for s in grid["specs"] if not _refusal(variant, s)]
        if variant in FUZZ_STALE_VARIANTS:
            specs += [s for s in FUZZ_STALE_SPECS if s not in specs]
        base = {"variant": variant}
        add("canonical", variant, [base])
        hi = int(bind(base)[1]().engine_events * 1.2) + 1
        points = range(1, hi, max(1, hi // grid["defers"]))
        for plan in [{}, *({"fault_spec": spec, "fault_seed": seed}
                           for spec in specs for seed in grid["fault_seeds"])]:
            add("random", variant, _schedules({**base, **plan},
                                              grid["seeds"])[1:])
            add("delay", variant, [{**base, **plan, "defer": (pos,)}
                                   for pos in points])
    for idle, storm in itertools.product(("park", "poll"), (False, True)):
        add("service", "service-ws", _schedules(
            {"idle_strategy": idle, **({"fault_spec": SERVICE_STORM,
                                        "fault_seed": 7} if storm else {})},
            grid["service_seeds"]))
    for scenario, variant in itertools.product(grid["scenarios"],
                                               SCENARIO_VARIANTS):
        if get_algorithm(variant).refusal(_overlaid(scenario)):
            skipped.append(f"{variant} × scenario `{scenario}` (a policy "
                           "it does not register)")
            continue
        for idle in ("poll", "park"):
            add("scenario" if idle == "poll" else "scenario-park", variant,
                _schedules({"variant": variant, "scenario": scenario,
                            "idle_strategy": idle}, grid["scenario_seeds"]))
    seeds, threads, ks, presets = grid["conservation"]
    for seed, variant, n, k, preset in itertools.product(
            seeds, VARIANTS, threads, ks, presets):
        add("conservation", variant, [{
            "variant": variant, "b0": 30, "q": 0.45, "tree_seed": seed,
            "threads": n, "chunk_size": k, "preset": preset}])
    return cells, skipped


def e15(scale: str, progress: Progress = None) -> CellTable:
    """Every variant under random and deferred schedules, fault plans,
    scenarios and service streams, then the conservation grid; each
    cell monitored and replayed.  A cell's ``where`` carries its
    ``cell``: the keywords :func:`repro.check.shrink` takes."""
    plan, skipped = e15_cells(scale)
    return CellTable(scale, [
        _fuzz_cell(where, cell,
                   progress if where["mode"] == "canonical" else None)
        for where, cell in plan], partial(_e15_table, skipped=skipped))


def _fuzz_cell(where: dict, cell: dict, progress: Progress) -> Cell:
    variant, run, schedule = bind(cell)
    tree = run.keywords.get("tree")
    return checked_cell({**where, "cell": cell}, variant, run,
                        None if tree is None else expected_node_count(tree),
                        progress=progress, **schedule)


def _clean(cell: Cell) -> bool:
    return cell.ok and cell.conserved and bool(cell.replayed)


def _csv(values) -> str:
    return ", ".join(map(str, values))


def _e15_table(t: CellTable, skipped: List[str]) -> str:
    grid = E15_GRID[t.scale]
    rows = []
    for variant in (*VARIANTS, "service-ws"):
        cells = [c for c in t.cells if c.where["variant"] == variant
                 and c.where["mode"] != "conservation"]
        rechecks, emits, resums = (
            sum(c.measured.get(key, 0) for c in cells)
            for key in ("ledger_rechecks", "emits", "dup_resums"))
        rows.append([variant, len(cells), sum(map(_clean, cells)),
                     sum(c.duplicated for c in cells), f"{rechecks:,} / "
                     f"{emits:,} ({rechecks / max(emits, 1):.3f})",
                     f"{resums:,}"])
    conservation = t.done(mode="conservation")
    return "\n".join([
        f"{SMALL.describe()}, 8 threads, k=4, Kitty Hawk model: per variant "
        f"the canonical schedule, then {grid['seeds']} random schedules and "
        f"{grid['defers']} deferral points per plan (fault-free; "
        f"{_csv(f'`{s}`' for s in grid['specs'])} where admitted, fault "
        f"seeds {_csv(grid['fault_seeds'])}; the stale plans on "
        f"{_csv(FUZZ_STALE_VARIANTS)}); {len(grid['scenarios'])} scenarios "
        f"on {_csv(SCENARIO_VARIANTS)}, polling and parked, canonical + "
        f"{grid['scenario_seeds']} random; service-ws parked and polling, "
        f"clean and under `{SERVICE_STORM}`, canonical + "
        f"{grid['service_seeds']} random:", "",
        markdown_table(["variant", "cells", "clean", "dup cells",
                        "ledger rechecks / emits", "dup re-sums"], rows), "",
        "Cells by mode: " + _csv(f"{mode} {n:,}" for mode, n in Counter(
            c.where["mode"] for c in t.cells).items()) + ".", "",
        "Conservation grid (binomial(b0=30, m=2, q=0.45) at tree seeds "
        "{}, every variant, {} threads, k {}, {}; canonical schedule, "
        "monitored): {}/{} cells clean.".format(
            *map(_csv, grid["conservation"]), sum(map(_clean, conservation)),
            len([c for c in t.cells if c.where["mode"] == "conservation"])),
        *(["", "Skipped pairings:", "", *(f"* {line}" for line in skipped)]
          if skipped else [])])
