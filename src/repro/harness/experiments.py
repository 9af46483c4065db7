"""The experiment registry: each paper claim stated once, checked by one command.

``EXPERIMENTS`` holds the paper's evaluation (E1-E6, DESIGN.md's index),
the rows beyond it (E9-E15: faults, traces, large machines, service
streams, scenarios, the fence-free protocol, the schedule-space fuzz)
and the extension rows (X1-X4).  An entry that runs simulations names
its grid per scale -- a figure's (:mod:`repro.harness.figures`), an
extension row's, or a checked-cell grid (:mod:`repro.harness.checked`)
-- and every grid runs through :func:`repro.harness.sweep.run_cells`
into one :class:`~repro.harness.sweep.CellTable`; the rest read another
entry's table instead of sweeping again (E5 reads E2, E6 reads E3) or
run nothing (E1).  Each entry states its claims.
A :class:`Claim` is declared for the scales it holds at: failing there
makes ``repro-uts experiment`` exit 1 naming it; failing elsewhere
prints ⚠️, a deviation measured rather than hand-typed (``holds_at=()``:
a paper claim the reproduction does not reach at any scale).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError
from repro.harness.config import SCALES, setup_for
from repro.harness.figures import (
    PAPER_SEQUENTIAL_RATES,
    ablation,
    best,
    headline_claims,
    sequential_baseline,
)
from repro.harness.parallel import JobSpec
from repro.harness.runner import expected_node_count
from repro.harness.sweep import (CellTable, Grid, figure_grid, markdown_table,
                                 mnodes, run_cells)
from repro.net.presets import KITTYHAWK
from repro.ws.algorithms import ALGORITHMS, get_algorithm
from repro.ws.config import WsConfig

__all__ = ["Claim", "Experiment", "Outcome", "EXPERIMENTS", "select",
           "run_experiments", "marker_ids", "require_blocks", "write_blocks"]

Progress = Optional[Callable[[str], None]]
Verdict = Tuple[bool, str]

@dataclass(frozen=True)
class Claim:
    """One claim: ``predicate(result) -> (holds, detail)``, declared to
    hold at the scales in ``holds_at``."""

    sentence: str
    ref: str
    predicate: Callable[[Any], Verdict]
    holds_at: Tuple[str, ...] = ("quick", "full")


@dataclass(frozen=True)
class Experiment:
    """``grid(scale)`` is the entry's cells and renderer, run by
    :func:`run_cells`; without one, ``run(result)`` reads the entry it
    ``reads``, or ``run(scale)`` runs no simulation.  Results render
    with ``markdown()`` and ``to_dict()``."""

    id: str
    title: str
    run: Optional[Callable[..., Any]] = None
    claims: Tuple[Claim, ...] = ()
    reads: Optional[str] = None
    grid: Optional[Callable[[str], Grid]] = None


@dataclass
class Outcome:
    """An entry's result at one scale, with each claim's verdict."""

    experiment: Experiment
    scale: str
    result: Any
    verdicts: List[Tuple[Claim, bool, str]] = field(init=False)

    def __post_init__(self) -> None:
        self.verdicts = [(c, *c.predicate(self.result))
                         for c in self.experiment.claims]

    def failures(self) -> List[Tuple[Claim, str]]:
        """Claims declared at this scale that do not hold."""
        return [(c, detail) for c, ok, detail in self.verdicts
                if not ok and self.scale in c.holds_at]

    def markdown(self) -> str:
        lines = [f"Measured at `{self.scale}` scale:", "",
                 self.result.markdown(), ""]
        for claim, ok, detail in self.verdicts:
            note = ("" if ok else f" — **FAILS**, claimed at `{self.scale}`"
                    if self.scale in claim.holds_at else
                    f" — claimed at: {', '.join(claim.holds_at) or 'no scale'}")
            lines.append(f"* {'✅' if ok else '⚠️'} {claim.sentence} "
                         f"({claim.ref}): {detail}{note}")
        return "\n".join(lines)


# --- predicates --------------------------------------------------------------


def _bound(what: str, measure: Callable[[Any], Any], above=None,
           below=None) -> Callable[[Any], Verdict]:
    """A predicate: every value ``measure(result)`` reads lies strictly
    above ``above`` and below ``below``, and there is one.  A bound
    given per scale (a dict) is read at the result's ``scale``; a series
    the scale's grid does not sweep is a verdict, not an error."""
    def predicate(result) -> Verdict:
        try:
            values = measure(result)
        except KeyError as exc:
            return False, f"{what}: {exc.args[0]}"
        values = values if isinstance(values, list) else [values]
        if not values:
            return False, f"{what}: an empty series"
        lo, hi = (b[result.scale] if isinstance(b, dict) else b
                  for b in (above, below))
        ok = all((lo is None or v > lo) and (hi is None or v < hi)
                 for v in values)
        needs = " and ".join(f"{op} {_num(b)}" for op, b in
                             ((">", lo), ("<", hi)) if b is not None)
        return ok, f"{what} {' '.join(map(_num, values))} (needs {needs})"
    return predicate


def _num(v: float) -> str:
    return f"{v:,.0f}" if abs(v) >= 1000 else f"{v:.3f}"


def _rates_are_the_papers(baseline) -> Verdict:
    rates = baseline.model.items()
    return (all(round(r, 2) == PAPER_SEQUENTIAL_RATES[n] for n, r in rates),
            ", ".join(f"{n} {r:.2f}" for n, r in rates))


def _rate(t: CellTable, **where) -> float:
    return t.cell(**where).result.nodes_per_sec


def _run(t: CellTable, alg: str, k: Optional[int] = None,
         T: Optional[int] = None):
    """``alg``'s first run at chunk size ``k`` and ``T`` threads (either
    ``None``: any) in a figure's table."""
    where = {key: v for key, v in (("chunk_size", k), ("threads", T))
             if v is not None}
    found = t.done(algorithm=alg, **where)
    if not found:
        raise KeyError(f"no run for {alg} k={k} T={T}")
    return found[0].result


def _peak(t: CellTable, alg: str) -> float:
    return best(t, alg).result.nodes_per_sec


def _at_k(t: CellTable, alg: str, pick=min) -> float:
    k = pick(c.where["chunk_size"] for c in t.cells)
    return _run(t, alg, k=k).nodes_per_sec


def _curve(t: CellTable, alg: str, metric: str = "nodes_per_sec"):
    return [getattr(_run(t, alg, T=T), metric)
            for T in sorted({c.where["threads"] for c in t.cells})]


def _per_t(t: CellTable, num: str, den: Callable[..., float],
           *algs: str) -> List[float]:
    """``num``'s throughput over ``den`` of the ``algs``' ones, per T."""
    return [n / den(*d) for n, *d in zip(_curve(t, num),
                                          *(_curve(t, a) for a in algs))]


def _figure(name: str) -> Callable[[str], Grid]:
    """Figure ``name``'s grid at a scale."""
    return lambda scale: figure_grid(setup_for(name, scale))


def _growth(values: List[float]) -> List[float]:
    """Each value over the one before it."""
    return [b / a for a, b in zip(values, values[1:])]


_OTHERS = ("upc-term-rapdif", "upc-term", "upc-sharedmem", "mpi-ws")
_UPC = ("upc-sharedmem", "upc-distmem")


def _steps(ab) -> List[float]:
    return [ratio for _, _, ratio in ab.improvements()]


#: The smallest step ratio still counted as "an improvement": the chain
#: compresses at 16 threads (quick) more than at 32.
STEP_FLOOR = {"test": 0.93, "quick": 0.93, "full": 0.97}
#: The smallest total (sharedmem -> distmem) counted as substantial.
TOTAL_FLOOR = {"test": 1.05, "quick": 1.05, "full": 1.08}
#: How far below its peak distmem must be at the largest chunk size for
#: the sweet spot to count as interior (not a flat or rising series).
FALLOFF = 0.8


# --- X1-X4: sweeps on Figure 4's tree and thread count -----------------------


def _grid(axes: Tuple[str, ...], cells: Callable[[], list]):
    """An extension row's grid: each ``(key, JobSpec keywords)`` of
    ``cells()`` on Kitty Hawk and Figure 4's tree and thread count,
    verified, named by ``axes``; its table is one row a cell."""
    def grid(scale: str) -> Grid:
        setup = setup_for("fig4", scale)
        expected = expected_node_count(setup.tree)
        return [(dict(zip(axes, key)), JobSpec(
            index=0, tree=setup.tree, threads=setup.thread_counts[0],
            preset="kittyhawk", expected_nodes=expected, **kwargs))
            for key, kwargs in cells()], partial(_run_table, axes)
    return grid


def _run_table(axes: Tuple[str, ...], t: CellTable) -> str:
    return markdown_table(
        [*axes, "Mnodes/s", "efficiency", "steals", "sim ms"],
        [[*c.where.values(), mnodes(r), f"{100 * r.efficiency:.1f}%",
          r.stats.steals_ok, f"{r.sim_time * 1e3:.3f}"]
         for c in t.cells for r in [c.result]])


def _polls(t: CellTable, poll: int, *others: int) -> float:
    """Throughput at polling interval ``poll`` over the best of ``others``."""
    return (_rate(t, poll_interval=poll)
            / max(_rate(t, poll_interval=o) for o in others))


def _kittyhawk(factor: float = 1.0, **overrides):
    """Kitty Hawk with its remote costs scaled by ``factor``."""
    return KITTYHAWK.with_overrides(
        remote_shared_ref=KITTYHAWK.remote_shared_ref * factor,
        rdma_latency=KITTYHAWK.rdma_latency * factor,
        lock_overhead=KITTYHAWK.lock_overhead * factor, **overrides)


def _slowdown(t: CellTable, alg: str) -> float:
    """Throughput at x0.25 remote costs over throughput at x4."""
    return (_rate(t, algorithm=alg, latency_x=0.25)
            / _rate(t, algorithm=alg, latency_x=4.0))


# --- E9-E15: checked-cell grids ----------------------------------------------


def _checked_grid(name: str) -> Callable[[str], Grid]:
    """The grid ``name`` of :mod:`repro.harness.checked`, imported on
    its first run: the checker, the service and the scenario catalog
    stay off ``import repro.harness``."""
    def grid(scale: str) -> Grid:
        from repro.harness import checked
        return getattr(checked, name)(scale)
    return grid


def _every(what: str, fails: Callable[[Any], bool],
           among: Callable[[Any], bool] = lambda cell: True):
    """A predicate: no cell ``among`` those considered ``fails``; the
    detail counts them and names the first that does."""
    def predicate(table) -> Verdict:
        cells = [c for c in table.cells if among(c)]
        bad = [c for c in cells if fails(c)]
        detail = f"{len(cells) - len(bad)}/{len(cells)} cells {what}"
        if not cells:
            return False, detail + ": no cell to check"
        return not bad, detail + (f"; first: {bad[0].label()}" if bad else "")
    return predicate


def _ok(cell) -> bool:
    return cell.ok


def _cell_claims(ref: str, invariants: Optional[str]) -> Tuple[Claim, ...]:
    """What every checked-cell grid claims of each cell, at every scale:
    its counts balance, it terminates, it raises nothing (under the
    monitor when ``invariants`` names what the monitor holds), it
    replays."""
    return (
        Claim("every cell conserves work: nodes + lost == the oracle (+ "
              "ledgered duplicates), nothing lost unless a rank was killed",
              ref, _every("balance", lambda c: not c.conserved, among=_ok),
              holds_at=SCALES),
        Claim("every cell terminates within its event budget", ref,
              _every("terminate", lambda c: not c.terminated),
              holds_at=SCALES),
        Claim(f"every cell holds {invariants} under the invariant monitor"
              if invariants else "no cell raises a protocol error", ref,
              _every("raise nothing", lambda c: c.terminated and not c.ok),
              holds_at=SCALES),
        Claim("every cell's untraced replay executes its checked run's "
              "schedule bit for bit", ref,
              _every("replay", lambda c: not c.replayed, among=_ok),
              holds_at=SCALES),
    )


_I1_I5 = "I1–I5 (I1′/I3′ for the relaxed variants)"


def _at_least(n: int, what: str, counts: Callable[[Any], Dict[str, int]]):
    """A predicate: every count ``counts(table)`` holds is at least
    ``n``; the detail names the first key short of it."""
    def predicate(table) -> Verdict:
        got = counts(table)
        short = [key for key, count in got.items() if count < n]
        detail = (", ".join(f"{key} {count:,}" for key, count in got.items())
                  + f" {what} (needs ≥ {n} each)")
        if not got:
            return False, f"no {what} counted (needs ≥ {n} each)"
        return not short, detail + (f"; short: {short[0]}" if short else "")
    return predicate


def _relaxed(variant: str) -> bool:
    return (variant in ALGORITHMS
            and get_algorithm(variant).multiplicity_relaxed)


def _speedup(t, over: dict, under: dict, **at) -> float:
    """Sim time at ``over`` / sim time at ``under``, both at ``at``."""
    return (t.cell(**at, **over).result.sim_time
            / t.cell(**at, **under).result.sim_time)


# --- the registry ------------------------------------------------------------

#: Where a claim is declared: the shape benchmarks asserted theirs at
#: ``quick`` and ``full``; EXPERIMENTS.md's hand-typed marks were read
#: off its ``full`` tables.
FULL = ("full",)

EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment("E1", "§4.1 sequential performance",
               lambda scale: sequential_baseline(), claims=(
        Claim("the model's sequential rates are the paper's measured ones",
              "§4.1", _rates_are_the_papers, holds_at=SCALES),
    )),
    Experiment("E2", "Figure 4: speedup & performance vs chunk size",
               grid=_figure("fig4"), claims=(
        Claim("upc-distmem is the best implementation at the sweet spot",
              "Fig. 4", _bound(
                  "distmem peak / best other peak", lambda f: _peak(
                      f, "upc-distmem") / max(_peak(f, a) for a in _OTHERS),
                  above=0.95)),
        Claim("upc-sharedmem suffers extreme performance degradation at "
              "low chunk sizes", "§4.2.1", _bound(
                  "sharedmem at the smallest k / its peak",
                  lambda f: _at_k(f, "upc-sharedmem")
                  / _peak(f, "upc-sharedmem"), below=0.6)),
        Claim("at the smallest chunk size upc-sharedmem is below "
              "upc-distmem", "§4.2.1", _bound(
                  "sharedmem / distmem at the smallest k",
                  lambda f: _at_k(f, "upc-sharedmem")
                  / _at_k(f, "upc-distmem"), below=1)),
        Claim("performance falls off at large chunk sizes: the sweet spot "
              "is interior", "§4.2.1", _bound(
                  "distmem at the largest k / its peak",
                  lambda f: _at_k(f, "upc-distmem", max)
                  / _peak(f, "upc-distmem"), below=FALLOFF)),
        Claim("upc-distmem slightly outperforms mpi-ws at the sweet spot",
              "§4.2.1", _bound(
                  "distmem peak / mpi-ws peak", lambda f: _peak(
                      f, "upc-distmem") / _peak(f, "mpi-ws"), above=1),
              holds_at=FULL),
        Claim("the sweet spot narrows for the less refined implementations "
              "(they peak at larger k)", "§4.2.1", _bound(
                  "peak k of term, sharedmem / of distmem",
                  lambda f: [best(f, a).where["chunk_size"]
                             / best(f, "upc-distmem").where["chunk_size"]
                             for a in ("upc-term", "upc-sharedmem")],
                  above=1), holds_at=FULL),
        Claim("mpi-ws keeps about as much of its peak at the smallest "
              "chunk size as upc-distmem", "Fig. 4", _bound(
                  "share of peak kept at the smallest k, mpi-ws / distmem",
                  lambda f: (_at_k(f, "mpi-ws") / _peak(f, "mpi-ws"))
                  / (_at_k(f, "upc-distmem") / _peak(f, "upc-distmem")),
                  above=0.9), holds_at=()),
    )),
    Experiment("E3", "Figure 5: scaling on Topsail", grid=_figure("fig5"),
               claims=(
        Claim("near-linear speedup at the low end", "Fig. 5", _bound(
            "distmem efficiency at the smallest T",
            lambda f: _curve(f, "upc-distmem", "efficiency")[0], above=0.85)),
        Claim("upc-distmem speedup grows monotonically with threads",
              "Fig. 5", _bound(
                  "distmem speedup over the previous T", lambda f: _growth(
                      _curve(f, "upc-distmem", "speedup")), above=1)),
        Claim("upc-distmem at least matches mpi-ws at every thread count",
              "Fig. 5", _bound("distmem / mpi-ws per T", lambda f: _per_t(
                  f, "upc-distmem", float, "mpi-ws"), above=0.95)),
        Claim("the gap to mpi-ws widens with scale", "Fig. 5", _bound(
            "distmem/mpi-ws at the largest T / at the smallest",
            lambda f: (r := _per_t(f, "upc-distmem", float, "mpi-ws"))[-1]
            / r[0], above=1), holds_at=FULL),
        Claim("upc-sharedmem is lowest at every thread count", "Fig. 5",
              _bound("sharedmem / lowest other per T", lambda f: _per_t(
                  f, "upc-sharedmem", min, "upc-distmem", "mpi-ws"),
                  below=1), holds_at=FULL),
    )),
    Experiment("E4", "Figure 6: shared memory (SGI Altix 3700)",
               grid=_figure("fig6"), claims=(
        Claim("both UPC implementations are near-linear on shared memory",
              "§4.3", _bound(
                  "sharedmem, distmem efficiency at the smallest T",
                  lambda f: [_curve(f, a, "efficiency")[0] for a in _UPC],
                  above=0.9)),
        Claim("results are close for both UPC implementations", "§4.3",
              _bound("distmem / sharedmem per T", lambda f: _per_t(
                  f, "upc-distmem", float, "upc-sharedmem"),
                  above=0.8, below=1.25)),
        Claim("the MPI implementation lags slightly behind the UPC "
              "implementations", "§4.3", _bound(
                  "mpi-ws / better UPC per T",
                  lambda f: _per_t(f, "mpi-ws", max, *_UPC), below=1.05)),
        Claim("the two UPC curves stay within 4% of each other", "§4.3",
              _bound("distmem / sharedmem per T", lambda f: _per_t(
                  f, "upc-distmem", float, "upc-sharedmem"),
                  above=0.96, below=1 / 0.96), holds_at=FULL),
        Claim("mpi-ws is lowest at every thread count", "§4.3", _bound(
            "mpi-ws / lower UPC per T",
            lambda f: _per_t(f, "mpi-ws", min, *_UPC), below=1),
            holds_at=FULL),
    )),
    Experiment("E5", "§4.2 refinement ablation", ablation, reads="E2",
               claims=(
        Claim("each of the refinements shows an improvement", "§4.2",
              _bound("step ratios", _steps, above=STEP_FLOOR)),
        Claim("at least one refinement is a clear win", "§4.2",
              _bound("largest step ratio", lambda ab: max(_steps(ab)),
                     above=1.05)),
        Claim("the total improvement is substantial", "§4.2", _bound(
            "total ratio", lambda ab: ab.total_improvement,
            above=TOTAL_FLOOR)),
        Claim("every refinement step is positive", "§4.2",
              _bound("step ratios", _steps, above=1), holds_at=FULL),
        Claim("the total improvement is about 37%", "§4.2", _bound(
            "total ratio", lambda ab: ab.total_improvement,
            above=1.30, below=1.44), holds_at=()),
    )),
    Experiment("E6", "§1/§6.2 headline claims", headline_claims, reads="E3",
               claims=(
        Claim("the top of the curve is meaningfully parallel", "§1",
              _bound("efficiency", lambda c: c.run.efficiency, above=0.5)),
        Claim("steals are sustained at a five-figure rate", "§6.2",
              _bound("steals/s", lambda c: c.run.steals_per_sec,
                     above=10_000)),
        Claim("parallel efficiency at the top of the curve is above the "
              "paper's 80%", "§1", _bound(
                  "efficiency", lambda c: c.run.efficiency, above=0.8),
              holds_at=FULL),
        Claim("more than 85,000 steals/s", "§1", _bound(
            "steals/s", lambda c: c.run.steals_per_sec, above=85_000),
            holds_at=FULL),
        Claim("93% of the time is spent in the working state", "§6.2",
              _bound("working-state share",
                     lambda c: c.run.working_fraction, above=0.93),
              holds_at=()),
    )),
    Experiment("X1", "§6.2 future work: hierarchical stealing", grid=_grid(
        ("algorithm",), lambda: [
            ((alg,), dict(algorithm=alg, chunk_size=8))
            for alg in ("upc-distmem", "upc-distmem-hier")]), claims=(
        Claim("on-node-first probing is competitive with flat upc-distmem",
              "§6.2", _bound("hier / flat", lambda t: _rate(
                  t, algorithm="upc-distmem-hier")
                  / _rate(t, algorithm="upc-distmem"), above=0.9)),
    )),
    Experiment("X2", "§6.1 performance portability: no hardware RDMA",
               grid=_grid(
        ("runtime", "algorithm"), lambda: [
            ((runtime, alg), dict(algorithm=alg, chunk_size=8,
                                  net=_kittyhawk(am_mode=runtime == "am")))
            for runtime in ("hw", "am") for alg in ("upc-distmem", "mpi-ws")]),
               claims=(
        Claim("an active-message runtime costs upc-distmem time", "§6.1",
              _bound("distmem sim time am / hw", lambda t: _speedup(
                  t, dict(runtime="am"), dict(runtime="hw"),
                  algorithm="upc-distmem"), above=1)),
        Claim("UPC's advantage over MPI narrows without hardware RDMA",
              "§6.1", _bound(
                  "distmem/mpi-ws am / hw", lambda t: (
                      _rate(t, runtime="am", algorithm="upc-distmem")
                      / _rate(t, runtime="am", algorithm="mpi-ws"))
                  / (_rate(t, runtime="hw", algorithm="upc-distmem")
                     / _rate(t, runtime="hw", algorithm="mpi-ws")),
                  below=1.02)),
    )),
    Experiment("X3", "latency sensitivity: the paper's premise isolated",
               grid=_grid(
        ("algorithm", "latency_x"), lambda: [
            ((alg, f), dict(algorithm=alg, net=_kittyhawk(f), chunk_size=4))
            for alg in ("upc-distmem", "upc-sharedmem")
            for f in (0.25, 1.0, 4.0)]), claims=(
        Claim("upc-sharedmem degrades faster than upc-distmem as remote "
              "references get slower", "§3.3", _bound(
                  "x0.25/x4 throughput, sharedmem / distmem",
                  lambda t: _slowdown(t, "upc-sharedmem")
                  / _slowdown(t, "upc-distmem"), above=1)),
    )),
    Experiment("X4", "§3.2 mpi-ws polling interval", grid=_grid(
        ("poll_interval",), lambda: [
            ((pi,), dict(algorithm="mpi-ws", chunk_size=4,
                         config=WsConfig(chunk_size=4, poll_interval=pi)))
            for pi in (4, 32, 512)]), claims=(
        Claim("very coarse polling starves the thieves", "§3.2", _bound(
            "poll 512 / best of poll 4, 32", lambda t: _polls(t, 512, 4, 32),
            below=1.02)),
        Claim("the polling interval has an interior optimum", "§3.2",
              _bound("poll 32 / best of poll 4, 512",
                     lambda t: _polls(t, 32, 4, 512), above=1),
              holds_at=FULL),
    )),
    Experiment("E9", "resilience sweep: fault classes and late kills",
               grid=_checked_grid("e9"), claims=_cell_claims(
                   "docs/fault-model.md", None)),
    Experiment("E10", "trace-driven steal analysis",
               grid=_checked_grid("e10"),
               claims=(
        Claim("the trace's state occupancy is the counters' working "
              "fraction", "docs/observability.md", _every(
                  "match", lambda c: abs(c.measured["trace_working_share"]
                                         - c.result.working_fraction) > 1e-9),
              holds_at=SCALES),
        Claim("a traced run executes its untraced replay's schedule bit for "
              "bit", "docs/observability.md",
              _every("replay", lambda c: not c.replayed), holds_at=SCALES),
        Claim("the working-state share climbs toward the paper's 93% as the "
              "tree grows", "§6.2", _bound(
                  "working share over the previous q's", lambda t: _growth(
                      [c.result.working_fraction for c in t.cells]),
                  above=1)),
    )),
    Experiment("E11", "O(active) engine scaling to 4096 threads",
               grid=_checked_grid("e11"), claims=(
        *_cell_claims("docs/performance.md", _I1_I5),
        Claim("parked, the pending-event set tracks the active threads, "
              "not the machine", "docs/performance.md", _bound(
                  "median queue park / poll per T", lambda t: [
                      t.cell(threads=T, idle="park").measured["median_queue"]
                      / t.cell(threads=T, idle="poll").measured["median_queue"]
                      for T in sorted({c.where["threads"] for c in t.done(
                          idle="poll")})], below=0.1)),
    )),
    Experiment("E12", "open-system service mode: load vs latency",
               grid=_checked_grid("e12"), claims=(
        *_cell_claims("docs/service-mode.md", "I1–I5 and task conservation"),
        Claim("past saturation the bounded queue sheds the excess",
              "docs/service-mode.md", _bound(
                  "shed fraction at load 1.5",
                  lambda t: t.cell(load="1.5").result.shed_fraction,
                  above=0)),
    )),
    Experiment("E13", "victim locality under NUMA asymmetry, with hostile "
               "workers", grid=_checked_grid("e13"), claims=(
        *_cell_claims("docs/scenarios.md", _I1_I5),
        Claim("on-node-first victim selection beats uniform once off-node "
              "steals cost 2x", "docs/scenarios.md", _bound(
                  "upc-distmem uniform / hierarchical time on numa-2x",
                  lambda t: _speedup(t, dict(victim="uniform"),
                                     dict(victim="hierarchical"),
                                     variant="upc-distmem", preset="numa-2x",
                                     adversary="none"), above=1)),
    )),
    Experiment("E14", "fence-free relaxed stealing vs the locked baseline",
               grid=_checked_grid("e14"), claims=(
        *_cell_claims("docs/protocols.md", _I1_I5),
        Claim("fault-free, the fence-free claim race duplicates nothing",
              "docs/protocols.md", _every(
                  "duplicate nothing", lambda c: c.result.dup_work > 0,
                  among=lambda c: c.ok and c.where["plan"] == "none"),
              holds_at=SCALES),
        Claim("under NUMA asymmetry dropping the steal transaction pays",
              "arXiv:2008.04424", _bound(
                  "upc-distmem / ws-fencefree time on numa-2x",
                  lambda t: _speedup(t, dict(variant="upc-distmem"),
                                     dict(variant="ws-fencefree"),
                                     preset="numa-2x", plan="none"),
                  above=1)),
        Claim("stale reads make the fence-free claim race duplicate work",
              "docs/protocols.md", _bound(
                  "ws-fencefree dup_work per stale plan", lambda t: [
                      c.result.dup_work for c in t.done(
                          variant="ws-fencefree") if c.where["plan"] != "none"],
                  above=0)),
    )),
    Experiment("E15", "schedule-space fuzz: every variant under random and "
               "deferred schedules", grid=_checked_grid("e15"), claims=(
        *_cell_claims("docs/correctness.md", _I1_I5),
        Claim("every variant runs at least 100 fuzzed cells",
              "docs/correctness.md", _at_least(
                  100, "fuzzed cells", lambda t: {
                      v: sum(c.where["variant"] == v
                             and c.where["mode"] != "conservation"
                             for c in t.cells) for v in sorted(ALGORITHMS)})),
        Claim("the stale plans make the relaxed variants duplicate work",
              "arXiv:2008.04424", _at_least(
                  10, "cells with ledgered duplicates", lambda t: {
                      v: sum(c.duplicated for c in t.cells
                             if c.where["variant"] == v)
                      for v in sorted(ALGORITHMS) if _relaxed(v)})),
        Claim("no strict variant ever duplicates work", "docs/correctness.md",
              _every("duplicate nothing", lambda c: c.duplicated,
                     among=lambda c: c.ok and not _relaxed(
                         c.where["variant"])), holds_at=SCALES),
    )),
)

_BY_ID = {e.id: e for e in EXPERIMENTS}


def select(ids: Sequence[str] = ()) -> List[Experiment]:
    """The named entries (all of them for none), unknown ids rejected."""
    unknown = [i for i in ids if i not in _BY_ID]
    if unknown:
        raise ConfigError(f"unknown experiment {unknown[0]!r}; available: "
                          f"{', '.join(_BY_ID)}")
    return [_BY_ID[i] for i in dict.fromkeys(ids)] if ids else list(EXPERIMENTS)


def run_experiments(ids: Sequence[str] = (), scale: str = "quick",
                    jobs: Optional[int] = None,
                    progress: Progress = None) -> List[Outcome]:
    """Run the named entries at ``scale``; an entry another reads runs
    once, and only for the readers asked for."""
    if scale not in SCALES:
        raise ConfigError(f"unknown scale {scale!r}; available: {SCALES}")
    chosen = select(ids)
    results: Dict[str, Any] = {}

    def result(entry: Experiment) -> Any:
        if entry.id not in results:
            results[entry.id] = (
                run_cells(entry.id, scale, *entry.grid(scale),
                          progress=progress, jobs=jobs) if entry.grid
                else entry.run(result(_BY_ID[entry.reads])) if entry.reads
                else entry.run(scale))
        return results[entry.id]

    return [Outcome(entry, scale, result(entry)) for entry in chosen]


_BLOCK = re.compile(r"(<!-- experiment:(\w+) -->\n).*?(<!-- /experiment:\2 -->)",
                    re.S)


def marker_ids(text: str) -> List[str]:
    """The ids of the ``<!-- experiment:ID -->`` ... ``<!-- /experiment:ID -->``
    blocks in a Markdown text, in order."""
    return [m.group(2) for m in _BLOCK.finditer(text)]


def require_blocks(path: Union[str, Path], ids: Sequence[str]) -> str:
    """``path``'s text, once every id in ``ids`` has a marker block in it."""
    text = Path(path).read_text(encoding="utf-8")
    missing = [i for i in ids if i not in marker_ids(text)]
    if missing:
        raise ConfigError(f"{path} has no <!-- experiment:{missing[0]} --> "
                          "block")
    return text


def write_blocks(path: Union[str, Path], outcomes: Sequence[Outcome]) -> None:
    """Replace each outcome's marker block in ``path``; nothing else moves."""
    blocks = {o.experiment.id: o.markdown() for o in outcomes}
    text = require_blocks(path, list(blocks))

    def replace(m: "re.Match[str]") -> str:
        body = blocks.get(m.group(2))
        return m.group(0) if body is None else f"{m.group(1)}{body}\n{m.group(3)}"

    Path(path).write_text(_BLOCK.sub(replace, text), encoding="utf-8")
