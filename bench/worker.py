"""One workload in one single-threaded process (internal to run.py).

``run.py`` starts this file with a JSON job on the command line and
reads one JSON object from its standard output.  Set-up -- imports,
loading the out-of-tree extension, materialising the tree, one small
warm-up cell per variant -- is timed from the first line of this file
and excluded from every pass.  A ``setup_only`` job stops there; a
timed job runs untraced passes for the requested seconds; a traced job
runs the paired span pass, the probe pass and the layer kernels.
"""

import time

_T0 = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import extbuild  # noqa: E402
import hostspeed  # noqa: E402

extbuild.load_extension()

from repro import fastpath  # noqa: E402
from repro.errors import ConfigError  # noqa: E402
from repro.harness.config import FIG4, T1_QUICK  # noqa: E402
from repro.harness.parallel import shared_tree  # noqa: E402

import ledger  # noqa: E402
import workloads  # noqa: E402
from spans import self_time_by_name  # noqa: E402
from workloads import checksum, run_cell  # noqa: E402

#: A run is at least this many passes, whatever ``--seconds`` says.
MIN_PASSES = 2
#: A pass whose CPU time is below this share of its wall was preempted.
MIN_CPU_SHARE = 0.9
MAX_RERUNS = 2
OUT_DIR = os.path.join(extbuild.BENCH_DIR, "out")


def set_up(workload) -> float:
    """Everything a first timed pass would otherwise pay for once."""
    if workload.needs_tree:
        shared_tree(T1_QUICK)
    for cell in workload.warm():
        run_cell(cell)
    gc.collect()
    return time.perf_counter() - _T0


class Verdict:
    """Counts attempted and failed cells and says why each failed."""

    def __init__(self, workload_name: str, seed: int, repin: bool) -> None:
        self.attempted = 0
        self.failed = 0
        self.drift = 0
        self.reasons: list = []
        self._pins = None
        if seed == 0 and not repin and os.path.exists(ledger.PINS):
            with open(ledger.PINS) as fh:
                self._pins = json.load(fh)["workloads"].get(workload_name)

    def fail(self, cell_id: str, why: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            # A sweep job's error carries the worker's whole traceback;
            # its last line names the cause.
            lines = why.strip().splitlines()
            cause = f" ... {lines[-1][:200]}" if len(lines) > 1 else ""
            self.reasons.append(f"{cell_id}: {lines[0][:200]}{cause}")

    def check(self, cell, outcome, reference_line=None) -> None:
        """One executed cell: it must have passed its own oracle, match
        the first execution of the same cell in this run, and (at seed
        0) match its pinned schedule."""
        self.attempted += 1
        if not outcome.ok:
            self.fail(cell.id, outcome.error)
        elif reference_line is not None and outcome.line != reference_line:
            self.fail(cell.id, "schedule differs between passes")
        elif self._pins is not None and (
                self._pins["cells"].get(cell.id) != ledger.pin(outcome.line)):
            self.drift += 1
            self.fail(cell.id, "schedule differs from bench/pins.json")


def one_pass(cells, verdict, yardstick, reference=None) -> dict:
    """Run the cell list once: per-cell wall-clock around the public
    call, a yardstick reading about every sixteenth of the pass (one
    per cell boundary when cells are few), CPU time around the whole
    pass."""
    gc.collect()
    stride = max(1, len(cells) // 16)
    walls, reading_before, outcomes = [], [], []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for i, cell in enumerate(cells):
        if i % stride == 0:
            if i and walls[-1] > 0.5:
                # A 1024-4096-thread machine leaves a large heap
                # behind; collecting it here (untimed) keeps it out of
                # the next cell's time and out of peak RSS.
                gc.collect()
            reading = yardstick.read()
        t0 = time.perf_counter()
        outcome = run_cell(cell)
        walls.append(time.perf_counter() - t0)
        reading_before.append(reading)
        outcomes.append(outcome)
    yardstick.read()
    wall = time.perf_counter() - wall0
    cpu_share = (time.process_time() - cpu0) / wall
    for i, (cell, outcome) in enumerate(zip(cells, outcomes)):
        verdict.check(cell, outcome, reference[i] if reference else None)
    return {"wall_s": wall, "cpu_share": cpu_share, "cell_s": walls,
            "cell_ref_s": hostspeed.to_reference(walls, yardstick,
                                                 reading_before),
            "outcomes": outcomes}


def timed_run(workload, cells, seconds: float, verdict) -> dict:
    """Untraced passes until ``seconds`` have been measured."""
    passes, preempted = [], []
    reference = None
    yardstick = hostspeed.Yardstick()
    start = time.perf_counter()
    while True:
        p = one_pass(cells, verdict, yardstick, reference)
        if reference is None:
            reference = [o.line for o in p["outcomes"]]
        if p["cpu_share"] < MIN_CPU_SHARE and len(preempted) < MAX_RERUNS:
            preempted.append(p)
            continue
        passes.append(p)
        elapsed = time.perf_counter() - start
        typical = statistics.median(q["wall_s"] for q in passes)
        # Stop at the pass boundary nearest to the requested time.
        if len(passes) >= MIN_PASSES and elapsed + typical / 2 >= seconds:
            break

    first = passes[0]["outcomes"]
    events = sum(o.events for o in first)
    nodes = sum(o.nodes for o in first)
    n = len(passes)

    def per_cell_medians(key: str) -> list:
        # Per cell over passes, then summed by the caller: a slow
        # stretch of the host that hits a few cells of one pass drops
        # out cell by cell.
        return [statistics.median(p[key][i] for p in passes)
                for i in range(len(cells))]

    ref_medians = per_cell_medians("cell_ref_s")
    wall_ref = sum(ref_medians)
    level, tail_ref = ledger.tail(ref_medians)

    raw_medians = per_cell_medians("cell_s")
    wall_raw = sum(raw_medians)

    def over_passes(value: float, raw: float, per_pass, unit: str,
                    note: str) -> dict:
        """``value`` (reference seconds) with the same statistic in raw
        seconds, and its quartiles taken pass by pass, which are the
        run's own noise estimate."""
        q1, _, q3 = ledger.quartiles([per_pass(p) for p in passes])
        return {"value": value, "unit": unit, "n": n, "q1": q1, "q3": q3,
                "raw": raw, "note": note}

    metrics = {
        "wall_s": over_passes(
            wall_ref, wall_raw, lambda p: sum(p["cell_ref_s"]), "ref_s",
            "sum of per-cell medians over passes"),
        "events_per_s": over_passes(
            events / wall_ref, events / wall_raw,
            lambda p: events / sum(p["cell_ref_s"]), "events/ref_s",
            f"{events} events a pass"),
        "nodes_per_s": over_passes(
            nodes / wall_ref, nodes / wall_raw,
            lambda p: nodes / sum(p["cell_ref_s"]), "nodes/ref_s",
            f"{nodes} nodes a pass"),
        "peak_rss_mb": ledger.exact(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "sim_time_s": ledger.exact(
            sum(o.sim_time for o in first), "sim_s",
            "simulated seconds summed over the cells (exact)"),
    }
    extras = {
        # Not a bounded metric: one cell's median over a few passes
        # spread by 8-20% between runs (see bench/README.md).
        "cell_s_tail": over_passes(
            tail_ref, ledger.tail(raw_medians)[1],
            lambda p: ledger.tail(p["cell_ref_s"])[1], "ref_s",
            f"{level} of {len(cells)} per-cell medians"),
    }
    return {
        "metrics": metrics,
        "extras": extras,
        "checksum": checksum(reference),
        "lines": reference,
        "passes": [{"wall_s": p["wall_s"], "cpu_share": p["cpu_share"],
                    "slowdown": sum(p["cell_s"]) / sum(p["cell_ref_s"])}
                   for p in passes + preempted],
        "preempted": len(preempted),
        "cell_median_ref_s": dict(zip((c.id for c in cells), ref_medians)),
    }


def traced_run(workload, cells, verdict, build_s: float) -> dict:
    """The paired span pass, the probe pass and the layer kernels."""
    from drive import Probe, drive_cell
    from layers import measure_layers
    from spans import Recorder

    rec = Recorder()
    plain_s, span_s, driven, lines = [], [], [], []
    gc.collect()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for i, cell in enumerate(cells):
        # Plain and stepped back to back, so a change of host speed
        # during the pass lands on both sides of the overhead ratio;
        # which goes first alternates, because the second run of a
        # cell finds the allocator and caches warm.
        t0 = time.perf_counter()
        if i % 2:
            d = drive_cell(cell, rec)
            t1 = time.perf_counter()
            outcome = run_cell(cell)
            stepped, plain = t1 - t0, time.perf_counter() - t1
        else:
            outcome = run_cell(cell)
            t1 = time.perf_counter()
            d = drive_cell(cell, rec)
            plain, stepped = t1 - t0, time.perf_counter() - t1
        plain_s.append(plain)
        span_s.append(stepped)
        verdict.check(cell, outcome)
        verdict.check(cell, d.outcome, outcome.line)
        driven.append(d)
        lines.append(outcome.line)
    cpu_share = (time.process_time() - cpu0) / (time.perf_counter() - wall0)

    probe = Probe()
    probe_rec = Recorder()
    for cell, line in zip(cells, lines):
        if workload.probe(cell):
            verdict.check(cell, drive_cell(cell, probe_rec, probe).outcome,
                          line)

    out = measure_layers()
    out.update(span_metrics(rec.spans, plain_s, span_s))
    out.update(counter_metrics(driven, probe))
    run_s = sum(s["end"] - s["start"] for s in rec.spans
                if s["name"] in RUN_SPANS)
    events = sum(d.outcome.events for d in driven)
    out["sim.engine_floor_share"] = ledger.exact(
        _ratio(_ratio(events, out[workload.kernel]["value"]), run_s), "share",
        f"events / {workload.kernel}, over spawn + run time")
    out["fastpath.build_s"] = ledger.exact(
        build_s, "s", "one-off out-of-tree compile, as recorded")
    out["bench.cpu_share"] = ledger.exact(
        cpu_share, "share", "cpu_s / wall_s of the paired pass")

    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{workload.name}.json")
    with open(trace_path, "w") as fh:
        json.dump({"workload": workload.name, "spans": rec.spans,
                   "self_time_by_name": self_time_by_name(rec.spans),
                   "probe": {"children_calls": probe.children_calls,
                             "children_s": probe.children_s,
                             "engine_events": probe.engine_events,
                             "records_by_kind": probe.records}}, fh)
    return {"metrics": out, "checksum": checksum(lines), "lines": lines,
            "trace_file": os.path.relpath(trace_path, extbuild.ROOT),
            "records_by_kind": probe.records}


#: The steps ``RunResult.host_seconds`` covers.
RUN_SPANS = ("pgas.spawn", "sim.run")
STEP_SPANS = ("uts.tree", "pgas.machine", "faults.runtime", "ws.construct",
              "pgas.spawn", "sim.run", "ws.finalize", "harness.verify")


def span_metrics(spans: list, plain_s: list, span_s: list) -> dict:
    """Where the span pass's time went, and what stepping cost."""
    own = self_time_by_name(spans)
    out = {f"span.{name}_s": ledger.exact(
        own.get(name, 0.0), "s", "self time over the span pass")
        for name in STEP_SPANS}
    out["span.harness.cell_self_s"] = ledger.exact(
        own["cell"], "s", "cell spans minus their steps")

    cell_s: dict = {}
    run_s: dict = {}
    for s in spans:
        if s["name"] == "cell":
            cell_s[s["cell"]] = s["end"] - s["start"]
        elif s["name"] in RUN_SPANS:
            run_s[s["cell"]] = (run_s.get(s["cell"], 0.0)
                                + s["end"] - s["start"])
    out["harness.cell_overhead_ms"] = ledger.sample(
        [(cell_s[c] - run_s.get(c, 0.0)) * 1e3 for c in cell_s], "ms",
        "per cell: everything outside spawn + run")
    level, tail_s = ledger.tail(plain_s)
    out["harness.cell_s_tail"] = ledger.exact(
        tail_s, "s", f"{level} of {len(plain_s)} cells, plain halves of the "
        "paired pass: a parallel sweep's critical path")
    out["bench.span_overhead_ratio"] = ledger.exact(
        sum(span_s) / sum(plain_s), "ratio",
        "stepped over plain wall; base: plain")
    out["bench.span_coverage"] = ledger.exact(
        sum(own.values()) / sum(span_s), "share",
        "summed self times over the stepped wall")
    return out


def counter_metrics(driven: list, probe) -> dict:
    """Exact counts at the layer boundaries, summed over the workload
    (span pass) or over the probe pass's cells."""
    ok = [d for d in driven if d.stats is not None]
    total = {f: sum(getattr(d.stats, f) for d in ok)
             for f in ("steal_attempts", "steals_ok", "probes",
                       "requests_granted", "requests_denied")}
    counters = [d.fault_counters for d in ok if d.fault_counters is not None]
    services = [d.service for d in ok if d.service is not None]

    def count(value, note: str) -> dict:
        return ledger.exact(value, "count", note)

    return {
        "ws.steal_success_ratio": ledger.exact(
            _ratio(total["steals_ok"], total["steal_attempts"]), "ratio",
            "steals_ok / steal_attempts over the workload (exact)"),
        "ws.probes_per_steal": ledger.exact(
            _ratio(total["probes"], total["steals_ok"]), "ratio",
            "probes / steals_ok (exact)"),
        "ws.requests_denied_share": ledger.exact(
            _ratio(total["requests_denied"],
                   total["requests_granted"] + total["requests_denied"]),
            "share", "denied / serviced steal requests (exact)"),
        "ws.idle.parks": count(probe.records.get("idle.park", 0),
                               "probe-pass cells"),
        "ws.idle.wakes": count(probe.records.get("idle.wake", 0),
                               "probe-pass cells"),
        "uts.children_calls": count(probe.children_calls,
                                    "probe-pass cells"),
        "uts.children_s": ledger.exact(
            probe.children_s, "s", "inside children(), probe-pass cells"),
        "faults.injected": count(sum(
            c.msgs_dropped + c.msgs_duplicated + c.msgs_delayed
            + c.lock_stalls + c.stale_reads + c.threads_killed
            for c in counters), "faults that fired over the workload (exact)"),
        "faults.recovered": count(sum(
            c.steal_timeouts + c.dup_requests_suppressed + c.stale_responses
            + c.token_relaunches + c.stale_tokens + c.heartbeat_suspicions
            for c in counters), "recovery actions (exact)"),
        "service.retries": count(sum(s.retries for s in services), "exact"),
        "service.shed": count(sum(s.shed_total for s in services), "exact"),
        "fastpath.active_share": ledger.exact(
            _ratio(sum(d.fastpath_active for d in driven), len(driven)),
            "share", "cells whose Simulator ran the compiled loop"),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def main() -> None:
    job = json.loads(sys.argv[1])
    workload = workloads.WORKLOADS[job["workload"]]
    # Read at every backend resolution, so setting it here is in time.
    os.environ["REPRO_FASTPATH"] = workload.backend
    setup_s = set_up(workload)
    try:
        resolved = fastpath.resolve("auto")
    except ConfigError:  # fast forced, extension not built
        resolved = "unavailable"
    result = {"setup_s": setup_s, "backend_resolved": resolved,
              "backend": {"env": workload.backend,
                          "core_available": fastpath.available(),
                          "core_unavailable_reason":
                              fastpath.why_unavailable()}}
    if not job.get("setup_only"):
        cells = workload.cells(job["seed"])
        verdict = Verdict(workload.name, job["seed"],
                          bool(job.get("repin")))
        if job.get("trace"):
            result.update(traced_run(workload, cells, verdict,
                                     job["build_s"]))
        else:
            result.update(timed_run(workload, cells, job["seconds"],
                                    verdict))
        if job.get("repin") and workload.name.startswith("fig4"):
            full = workloads.fig4_grid(0, FIG4["quick"].chunk_sizes)
            result["fig4_full_sweep"] = checksum(
                [run_cell(cell).line for cell in full])
        result.update(cells=[c.id for c in cells],
                      attempted=verdict.attempted, failed=verdict.failed,
                      drift_cells=verdict.drift, reasons=verdict.reasons)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
