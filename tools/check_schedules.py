#!/usr/bin/env python
"""Schedule-space fuzzer: variants x schedule seeds x fault plans.

Every cell runs one invariant-checked simulation
(:func:`repro.check.check_run`) under a non-canonical schedule:

* **random mode** -- seeded permutations of every same-timestamp event
  batch (``--seeds N`` sweeps schedule seeds ``0..N-1``);
* **delay-bounded mode** -- systematic single-event deferrals from the
  canonical schedule (``--delay-budget K`` spreads K deferral points
  over the run), the bounded neighbourhood CI explores.

Fault plans (``--fault-specs``) multiply the matrix; fault-free cells
must pass *all* invariants for the sweep to succeed.  On failure the
cell is shrunk (:mod:`repro.check.shrink`) to a minimal reproducer and
emitted as a ready-to-paste pytest case (``--emit-tests DIR``).

Writes a JSON report for the CI artifact; exits non-zero if any cell
failed.

Usage::

    PYTHONPATH=src python tools/check_schedules.py --variants all \
        --seeds 50 --delay-budget 40 --out CHECK_report.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.check import (VARIANTS, check_run, check_service_run,  # noqa: E402
                         reproducer_source, shrink)
from repro.errors import ConfigError  # noqa: E402
from repro.faults.plan import parse_fault_spec  # noqa: E402
from repro.scenarios import get_scenario  # noqa: E402
from repro.ws.algorithms import get_algorithm  # noqa: E402

#: Base cell every sweep point starts from (small tree: a full sweep
#: must fit in a CI minute; see docs/correctness.md for deep budgets).
BASE_CELL = {
    "threads": 8,
    "chunk_size": 4,
    "preset": "kittyhawk",
    "b0": 64,
    "q": 0.48,
    "m": 2,
    "tree_seed": 1,
    "max_events": 500_000,
}


#: Variants whose correctness story lives in the stale-read window
#: (fence-free multiplicity; tree-split's no-remote-read baseline):
#: their sweep always includes stale plans, whatever --fault-specs says.
STALE_VARIANTS = ("ws-fencefree", "tree-split")
STALE_SPECS = ("stale=0.3,stale-window=40us",
               "stale=0.5,stale-window=80us")


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", text.lower()).strip("_")


def _spec_supported(variant: str, spec: str) -> bool:
    """Whether ``variant`` tolerates every fault class in ``spec``
    (algorithms with a restricted ``fault_classes`` catalog reject
    incompatible plans at construction -- filter, don't crash)."""
    allowed = get_algorithm(variant).fault_classes
    if allowed is None:
        return True
    plan = parse_fault_spec(spec, seed=0)
    return set(plan.fault_classes) <= set(allowed)


def _variant_specs(variant: str, fault_specs) -> list:
    """The fault specs ``variant`` actually sweeps: the requested ones
    it supports, plus the stale plans for the stale-window variants.
    Skips are printed -- a silently narrowed matrix would read as
    covered when it is not."""
    specs = []
    for spec in fault_specs:
        if _spec_supported(variant, spec):
            specs.append(spec)
        else:
            allowed = sorted(get_algorithm(variant).fault_classes)
            print(f"NOTE {variant}: skipping fault spec {spec!r} "
                  f"(variant supports only {allowed})", flush=True)
    if variant in STALE_VARIANTS:
        specs.extend(s for s in STALE_SPECS if s not in specs)
    return specs


def run_cell(cell: dict) -> dict:
    t0 = time.perf_counter()
    out = check_run(**cell)
    return {
        "cell": cell,
        "ok": out.ok,
        "error_type": out.error_type,
        "error": out.error,
        "engine_events": out.engine_events,
        "total_nodes": out.total_nodes,
        "dup_work": out.dup_work,
        "host_seconds": round(time.perf_counter() - t0, 4),
        "monitor": out.monitor,
    }


def sweep(variants, seeds, delay_budget, fault_specs, fault_seeds,
          base_cell, progress=True):
    """Yield one result dict per cell, canonical cells first."""
    for variant in variants:
        specs = [None] + _variant_specs(variant, fault_specs)
        # Canonical schedule first: it anchors the delay-bounded mode
        # (deferral points are spread over its event count) and proves
        # the monitor passes the pinned schedule.
        canonical = run_cell({**base_cell, "variant": variant})
        yield {**canonical, "mode": "canonical"}
        n_events = max(canonical["engine_events"], 1)
        for spec in specs:
            f_seeds = fault_seeds if spec else [0]
            for fseed in f_seeds:
                extra = {}
                if spec:
                    extra = {"fault_spec": spec, "fault_seed": fseed}
                for s in range(seeds):
                    yield {**run_cell({**base_cell, "variant": variant,
                                       "schedule_seed": s, **extra}),
                           "mode": "random"}
                if delay_budget > 0:
                    # Deferral points spread over the scheduled-seq
                    # space (seqs run ~1.2x the dispatched events:
                    # stale wake-ups are scheduled but skipped).
                    hi = int(n_events * 1.2) + 1
                    stride = max(1, hi // delay_budget)
                    for pos in range(1, hi, stride):
                        yield {**run_cell({**base_cell, "variant": variant,
                                           "defer": (pos,), **extra}),
                               "mode": "delay"}


#: Scenario cells: every catalog scenario fuzzed under non-canonical
#: schedules (the NUMA/adversary paths have their own races to probe).
#: upc-distmem exercises the request/response protocol the adversaries
#: target; upc-term covers the lock-based steal path.  mpi-ws skips the
#: dup scenarios only in *faulted* mode (sequence dedup suppresses the
#: duplicates by design), which the scenario sweep below stays clear of
#: anyway (scenario cells are fault-free; the fault matrix is separate).
#: ws-fencefree probes the unsynchronised claim race under skewed
#: speeds; tree-split covers the barrier/rebalance path (its policy
#: gates drop the hierarchical-victim scenarios via
#: :func:`_scenario_supported`).
SCENARIO_VARIANTS = ("upc-distmem", "upc-term", "ws-fencefree",
                     "tree-split")


def _scenario_supported(variant: str, scenario: str) -> bool:
    """Whether the scenario's policy overlay is one ``variant``
    registers support for (e.g. numa-*-locality pins the hierarchical
    victim policy, which tree-split does not implement)."""
    sc = get_scenario(scenario)
    cls = get_algorithm(variant)
    if (sc.victim_policy is not None
            and cls.victim_policies is not None
            and sc.victim_policy not in cls.victim_policies):
        return False
    if (sc.steal_policy is not None
            and cls.steal_policies is not None
            and sc.steal_policy not in cls.steal_policies):
        return False
    if (sc.termination_policy is not None
            and sc.termination_policy not in cls.termination_policies):
        return False
    return True


def scenario_sweep(scenarios, seeds, base_cell):
    """Yield one result dict per (scenario, variant, idle, schedule)
    cell.  Both idle strategies run: scenario cells are fault-free, so
    ``park`` is always legal, and the park gate under adversarial
    speed skew is exactly the under-covered corner this sweep exists
    to probe."""
    for scenario in scenarios:
        for variant in SCENARIO_VARIANTS:
            if not _scenario_supported(variant, scenario):
                print(f"NOTE {variant}: skipping scenario {scenario!r} "
                      f"(unsupported policy pairing)", flush=True)
                continue
            for idle in ("poll", "park"):
                mode = "scenario" if idle == "poll" else "scenario-park"
                cell = {**base_cell, "variant": variant,
                        "scenario": scenario, "idle_strategy": idle}
                yield {**run_cell(cell), "mode": mode}
                for s in range(seeds):
                    yield {**run_cell({**cell, "schedule_seed": s}),
                           "mode": mode}


#: Service-mode cell for the open-system invariants (extended I1 task
#: conservation + service.close termination); storms exercise the
#: fail-stop-under-park paths.
SERVICE_CELL = {
    "threads": 8,
    "chunk_size": 2,
    "arrival_spec": "poisson:rate=8e5",
    "n_tasks": 120,
    "queue_capacity": 16,
    "policy": "shed-oldest",
    "deadline": 150e-6,
    "max_events": 500_000,
}
SERVICE_FAULT_SPECS = (None, "storm(kill:2@t=0.05ms..0.2ms)")


def run_service_cell(cell: dict) -> dict:
    t0 = time.perf_counter()
    out = check_service_run(**cell)
    return {
        "cell": {**cell, "service": True},
        "ok": out.ok,
        "error_type": out.error_type,
        "error": out.error,
        "engine_events": out.engine_events,
        "total_nodes": out.total_nodes,
        "host_seconds": round(time.perf_counter() - t0, 4),
        "monitor": out.monitor,
    }


def service_sweep(seeds):
    """Service cells: canonical + random schedules, clean and stormed,
    both idle strategies.  Small by design (rides the same CI minute)."""
    for idle in ("park", "poll"):
        for spec in SERVICE_FAULT_SPECS:
            extra = {"idle_strategy": idle}
            if spec:
                extra.update(fault_spec=spec, fault_seed=7)
            yield {**run_service_cell({**SERVICE_CELL, **extra}),
                   "mode": "service"}
            for s in range(seeds):
                yield {**run_service_cell({**SERVICE_CELL, **extra,
                                           "schedule_seed": s}),
                       "mode": "service"}


def _validate(args, variants, scenario_names) -> None:
    """Raise :class:`ConfigError` for input no cell could run with:
    every name is looked up and every fault spec parsed up front."""
    for variant in variants:
        get_algorithm(variant)
    for flag, value in (("--threads", args.threads),
                        ("--chunk-size", args.chunk_size)):
        if value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    for spec in args.fault_specs:
        parse_fault_spec(spec, seed=0)
    for name in scenario_names:
        get_scenario(name)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--variants", nargs="+", default=["all"],
                    help="algorithm labels, or 'all' (default)")
    ap.add_argument("--seeds", type=int, default=20,
                    help="random schedule seeds per (variant, fault) cell")
    ap.add_argument("--delay-budget", type=int, default=0,
                    help="systematic single-deferral points per cell "
                         "(0 = skip delay-bounded mode)")
    ap.add_argument("--fault-specs", nargs="*", default=[],
                    help="fault plans to multiply in (parse_fault_spec "
                         "grammar); fault-free cells always run")
    ap.add_argument("--fault-seeds", nargs="*", type=int, default=[0],
                    help="fault seeds per fault spec")
    ap.add_argument("--threads", type=int, default=BASE_CELL["threads"])
    ap.add_argument("--chunk-size", type=int, default=BASE_CELL["chunk_size"])
    ap.add_argument("--b0", type=int, default=BASE_CELL["b0"])
    ap.add_argument("--q", type=float, default=BASE_CELL["q"])
    ap.add_argument("--tree-seed", type=int, default=BASE_CELL["tree_seed"])
    ap.add_argument("--max-events", type=int, default=BASE_CELL["max_events"])
    ap.add_argument("--service-seeds", type=int, default=3,
                    help="random schedule seeds per service-mode cell "
                         "(-1 = skip service cells entirely)")
    ap.add_argument("--scenarios", nargs="*", default=["default"],
                    help="scenario names to fuzz ('all' = whole catalog, "
                         "'default' = a small representative set, empty "
                         "= skip scenario cells)")
    ap.add_argument("--scenario-seeds", type=int, default=2,
                    help="random schedule seeds per scenario cell")
    ap.add_argument("--out", default="CHECK_report.json")
    ap.add_argument("--emit-tests", metavar="DIR", default=None,
                    help="write shrunk reproducer pytest files here")
    ap.add_argument("--no-shrink", action="store_true",
                    help="report failures without minimizing them")
    args = ap.parse_args(argv)

    variants = (list(VARIANTS) if args.variants == ["all"]
                else args.variants)
    if args.scenarios == ["all"]:
        from repro.scenarios import SCENARIOS
        scenario_names = sorted(SCENARIOS)
    elif args.scenarios == ["default"]:
        # A small representative set: one NUMA pair, the hostile mix.
        scenario_names = ["numa-8x-uniform", "numa-8x-locality",
                          "hostile-mix"]
    else:
        scenario_names = args.scenarios
    try:
        _validate(args, variants, scenario_names)
    except ConfigError as exc:
        # Bad input, named, before the first cell: usage plus one
        # ``error:`` line, exit status 2 (the CLI's contract).  Inside a
        # cell check_run folds a ConfigError into a failure, which the
        # sweep would then shrink as if it were a schedule bug.
        ap.error(str(exc))
    base_cell = dict(BASE_CELL, threads=args.threads,
                     chunk_size=args.chunk_size, b0=args.b0, q=args.q,
                     tree_seed=args.tree_seed, max_events=args.max_events)

    t0 = time.perf_counter()
    results, failures = [], []

    def _consume(res):
        results.append(res)
        if not res["ok"]:
            failures.append(res)
            cell = res["cell"]
            print(f"FAIL {cell.get('variant', 'service-ws')} "
                  f"[{res['mode']}] {_cell_key(cell)}: "
                  f"{res['error_type']}: {res['error']}", flush=True)

    for res in sweep(variants, args.seeds, args.delay_budget,
                     args.fault_specs, args.fault_seeds, base_cell):
        _consume(res)
    if args.service_seeds >= 0:
        for res in service_sweep(args.service_seeds):
            _consume(res)
    for res in scenario_sweep(scenario_names, args.scenario_seeds,
                              base_cell):
        _consume(res)

    shrunk = []
    for res in failures:
        if args.no_shrink or res["cell"].get("service"):
            # Service cells have no shrinker yet; the cell dict in the
            # report is already a small reproducer.
            continue
        try:
            sr = shrink(res["cell"])
        except ValueError:
            # Flaky under host conditions -- should not happen (cells
            # are deterministic); record and move on.
            shrunk.append({"cell": res["cell"], "shrink": "did-not-refail"})
            continue
        name = _slug(f"{sr.cell['variant']}_{sr.error_type}_"
                     f"{_cell_key(sr.cell)}")
        # The emitted test asserts the cell passes (its post-fix form);
        # drop the minimized budget so a fixed run can complete.
        test_cell = {k: v for k, v in sr.cell.items() if k != "max_events"}
        source = ("from repro.check import check_run\n\n\n"
                  + reproducer_source(
                      test_cell, sr.error_type, sr.error, name,
                      note=f"Minimal event budget to reach the failure: "
                           f"{sr.cell.get('max_events', 'n/a')}."))
        entry = {
            "cell": res["cell"],
            "shrunk_cell": sr.cell,
            "error_type": sr.error_type,
            "error": sr.error,
            "shrink_runs": sr.runs,
            "reproducer": source,
        }
        shrunk.append(entry)
        print(f"SHRUNK -> {sr.cell} ({sr.runs} runs)", flush=True)
        if args.emit_tests:
            os.makedirs(args.emit_tests, exist_ok=True)
            path = os.path.join(args.emit_tests, f"test_{name}.py")
            with open(path, "w") as fh:
                fh.write(source)
            print(f"  wrote {path}", flush=True)

    report = {
        "meta": {
            "python": platform.python_version(),
            "argv": sys.argv[1:],
            "variants": variants,
            "seeds": args.seeds,
            "delay_budget": args.delay_budget,
            "fault_specs": args.fault_specs,
            "base_cell": base_cell,
            "host_seconds": round(time.perf_counter() - t0, 2),
        },
        "totals": {
            "cells": len(results),
            "failed": len(failures),
            "by_mode": _by_mode(results),
            "by_variant": _by_variant(results),
        },
        "failures": [
            {k: r[k] for k in ("cell", "mode", "error_type", "error")}
            for r in failures
        ],
        "shrunk": shrunk,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, default=repr)
    ok = not failures
    print(f"{len(results)} cell(s), {len(failures)} failure(s) "
          f"in {report['meta']['host_seconds']}s -> {args.out}")
    print("CLEAN SWEEP" if ok else "FAILURES FOUND")
    return 0 if ok else 1


def _cell_key(cell: dict) -> str:
    bits = []
    if cell.get("scenario"):
        bits.append(f"scenario={cell['scenario']}")
    if cell.get("schedule_seed") is not None:
        bits.append(f"sched={cell['schedule_seed']}")
    if cell.get("defer"):
        bits.append(f"defer={list(cell['defer'])}")
    if cell.get("fault_spec"):
        bits.append(f"faults={cell['fault_spec']}@{cell.get('fault_seed', 0)}")
    return ",".join(bits) or "canonical"


def _by_mode(results):
    out = {}
    for r in results:
        mode = r["mode"]
        m = out.setdefault(mode, {"cells": 0, "failed": 0})
        m["cells"] += 1
        m["failed"] += not r["ok"]
    return out


def _by_variant(results):
    """Per-variant cell/failure counts (the CI artifact's coverage
    ledger: a variant silently dropping out of the matrix shows up as
    a missing key, not as a green sweep).  ``dup_cells`` counts cells
    whose run took at least one ledgered duplicate -- evidence the
    relaxed-multiplicity path was exercised, not vacuously green.
    ``emits`` / ``ledger_rechecks`` / ``dup_resums`` sum the monitor's
    own counters: what its ledger pass re-read per emit, and how often
    it re-summed the duplication ledger."""
    summed = ("emits", "ledger_rechecks", "dup_resums")
    out = {}
    for r in results:
        variant = r["cell"].get("variant", "service-ws")
        m = out.setdefault(variant, {"cells": 0, "failed": 0,
                                     "dup_cells": 0,
                                     **dict.fromkeys(summed, 0)})
        m["cells"] += 1
        m["failed"] += not r["ok"]
        m["dup_cells"] += bool(r.get("dup_work"))
        for key in summed:
            m[key] += r["monitor"].get(key, 0)
    return out


if __name__ == "__main__":
    sys.exit(main())
