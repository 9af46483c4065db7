"""``repro-uts`` command-line interface.

Examples::

    repro-uts run --algorithm upc-distmem --threads 16 --chunk-size 8
    repro-uts experiment E2 --scale quick --jobs 4 --json results/
    repro-uts experiment --scale full --write EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ConfigError
from repro.harness.config import SCALES
from repro.harness.runner import run_experiment
from repro.net.presets import PRESETS
from repro.uts.params import TreeParams
from repro.ws.algorithms import ALGORITHMS
from repro.ws.registry import VICTIM_POLICIES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-uts",
        description="Reproduction harness for 'Scalable Dynamic Load "
                    "Balancing Using UPC' (ICPP 2008)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", parents=[_run_options()],
                           help="one experiment")
    run_p.add_argument("--algorithm", choices=sorted(ALGORITHMS),
                       default="upc-distmem")
    run_p.add_argument("--b0", type=int, default=500)
    run_p.add_argument("--q", type=float, default=0.499)
    run_p.add_argument("--tree-seed", type=int, default=0)
    run_p.add_argument("--engine", default="sha1",
                       choices=["sha1", "splitmix"])
    run_p.add_argument("--no-verify", action="store_true")
    run_p.add_argument(
        "--scenario", metavar="NAME", default=None,
        help="run under a catalog scenario (machine preset + policy + "
             "adversary bundle; `repro-uts scenarios` lists them, "
             "docs/scenarios.md documents them).  The scenario's "
             "preset overrides --preset")
    run_p.add_argument(
        "--victim-policy", choices=list(VICTIM_POLICIES),
        default=None,
        help="override the algorithm's victim-selection policy "
             "(locality-aware 'hierarchical' probes same-node ranks "
             "first); applied on top of any --scenario")

    exp = sub.add_parser(
        "experiment",
        help="run the paper's experiments, print their tables and check "
             "their claims (exit 1 names a claim that fails)")
    exp.add_argument("ids", nargs="*", metavar="ID",
                     help="registry ids, e.g. E2 E5 X1 (default: all)")
    exp.add_argument("--scale", choices=SCALES, default="quick")
    exp.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for every entry's grid (E2-E4, X1-X4, "
             "E9-E15; default: $REPRO_JOBS or 1; 0 = one per CPU); "
             "results are identical for any N")
    exp.add_argument("--json", metavar="DIR",
                     help="write each result as DIR/<scale>_<ID>.json")
    exp.add_argument("--csv", metavar="DIR",
                     help="write each result's runs as DIR/<scale>_<ID>.csv")
    exp.add_argument(
        "--write", metavar="FILE",
        help="replace each experiment's <!-- experiment:ID --> block in "
             "FILE (e.g. EXPERIMENTS.md); nothing else in FILE changes")

    srv = sub.add_parser(
        "serve", parents=[_run_options()],
        help="open-system service run: a continuous task stream over "
             "the pool (see docs/service-mode.md)")
    srv.set_defaults(threads=64, chunk_size=2, idle_strategy="park")
    srv.add_argument(
        "--arrivals", metavar="SPEC", default="poisson:rate=1e5",
        help="arrival process, e.g. 'poisson:rate=2e5', "
             "'bursty:rate=2e5,burst=8,p=0.1', "
             "'diurnal:rate=2e5,period=2ms,depth=0.8'")
    srv.add_argument("--tasks", type=int, default=200,
                     help="tasks the stream generates (finite horizon)")
    srv.add_argument("--queue-capacity", type=int, default=64,
                     help="bounded admission-queue capacity")
    srv.add_argument("--policy",
                     choices=["block", "shed-oldest", "shed-newest"],
                     default="block",
                     help="backpressure when the admission queue is full")
    srv.add_argument("--deadline", type=float, default=0.0, metavar="SEC",
                     help="per-attempt queue deadline in simulated seconds "
                          "(0 = none)")
    srv.add_argument("--max-retries", type=int, default=2,
                     help="re-admissions after deadline expiry before a "
                          "task is shed")
    srv.add_argument("--task-b0", type=int, default=4)
    srv.add_argument("--task-q", type=float, default=0.45)
    srv.add_argument("--task-gran", type=int, default=1,
                     help="per-node compute granularity of each task")
    srv.add_argument("--service-seed", type=int, default=0,
                     help="seed for arrivals, task roots, and retry jitter")
    srv.add_argument("--seed", type=int, default=0,
                     help="machine seed (probe orders)")

    tl = sub.add_parser("timeline", help="render per-thread execution timeline")
    tl.add_argument("--algorithm", choices=sorted(ALGORITHMS),
                    default="upc-distmem")
    tl.add_argument("--threads", type=int, default=8)
    tl.add_argument("--chunk-size", type=int, default=4)
    tl.add_argument("--preset", choices=sorted(PRESETS), default="kittyhawk")
    tl.add_argument("--b0", type=int, default=200)
    tl.add_argument("--q", type=float, default=0.49)
    tl.add_argument("--tree-seed", type=int, default=0)
    tl.add_argument("--width", type=int, default=72)

    sub.add_parser("scenarios",
                   help="list the scenario catalog (docs/scenarios.md)")
    return p


def _run_options() -> argparse.ArgumentParser:
    """The options ``run`` and ``serve`` share, with ``run``'s defaults.

    A fresh parent per subcommand: a subparser shares its parent's
    action objects, so ``serve``'s ``set_defaults`` would otherwise move
    ``run``'s defaults too."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--threads", type=int, default=16)
    p.add_argument("--chunk-size", type=int, default=8)
    p.add_argument("--preset", choices=sorted(PRESETS), default="kittyhawk")
    p.add_argument(
        "--idle-strategy", choices=["poll", "park"], default="poll",
        help="'poll' (the canonical bit-identical schedule; run's default) "
             "or 'park' (idle threads cost zero pending events -- the "
             "O(active) engine, see docs/performance.md; serve's "
             "default: arrivals wake a parked pool)")
    p.add_argument(
        "--queue", choices=["auto", "heap", "bucket"], default="auto",
        help="event-queue backend; 'auto' is the heap, 'bucket' keeps "
             "the compiled loop off (identical dispatch order)")
    p.add_argument(
        "--fastpath", choices=["auto", "pure", "fast"], default="auto",
        help="execution backend: 'auto' uses the compiled "
             "repro.fastpath core when built, 'pure' forces the "
             "pure-Python loops, 'fast' errors if the extension is "
             "missing (bit-identical schedules either way)")
    p.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="deterministic fault injection, e.g. "
             "'drop=0.05,dup=0.02,delay=0.1' or 'kill=3@2ms,kill=5@4ms' "
             "or 'stall=0.1,stale=0.05' or 'storm(kill:3@t=5ms..6ms)' "
             "(see docs/fault-model.md)")
    p.add_argument(
        "--fault-seed", type=int, default=0, metavar="N",
        help="seed for the fault plan's own random streams (independent "
             "of the tree and probe-order seeds)")
    p.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a structured trace of the run and write it here "
             "(see docs/observability.md)")
    p.add_argument(
        "--trace-format", choices=["chrome", "jsonl", "report"], default=None,
        help="trace output format: 'chrome' (Perfetto / chrome://tracing "
             "JSON), 'jsonl' (diffable event log), 'report' (Markdown run "
             "report); default: inferred from PATH's extension "
             "(.jsonl -> jsonl, .md -> report, else chrome)")
    return p


def _trace_format(args: argparse.Namespace) -> str:
    """Explicit --trace-format, else inferred from the path's suffix."""
    if args.trace_format:
        return args.trace_format
    path = args.trace.lower()
    if path.endswith(".jsonl"):
        return "jsonl"
    if path.endswith((".md", ".markdown")):
        return "report"
    return "chrome"


def _write_trace(args: argparse.Namespace, sink) -> None:
    from repro.obs import dump_chrome_trace, dump_jsonl, render_trace_report

    fmt = _trace_format(args)
    events = sink.events()
    meta = sink.meta
    if fmt == "chrome":
        dump_chrome_trace(args.trace, events, n_threads=meta.get("threads"),
                          sim_time=meta.get("sim_time"), meta=meta)
    elif fmt == "jsonl":
        dump_jsonl(args.trace, events, meta)
    else:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(render_trace_report(events, meta))
    print(f"wrote {fmt} trace ({len(events)} events) to {args.trace}")


def _run_command(args: argparse.Namespace, body) -> int:
    """``run`` and ``serve``: the fault plan and trace sink from the
    shared options, ``body(args, plan, sink)`` -- which runs, prints the
    command's own lines and returns ``(result, loss line)`` -- then the
    fault ledger and the trace."""
    plan = None
    if args.faults:
        from repro.faults import parse_fault_spec

        plan = parse_fault_spec(args.faults, seed=args.fault_seed)
    sink = None
    if args.trace:
        from repro.obs import TraceSink

        sink = TraceSink()
    res, lost = body(args, plan, sink)
    if res.fault_counters is not None:
        print(lost)
        nz = res.fault_counters.nonzero()
        if nz:
            print("fault counters: "
                  + " ".join(f"{k}={v}" for k, v in sorted(nz.items())))
    if sink is not None:
        _write_trace(args, sink)
    return 0


def _run_single(args: argparse.Namespace, plan, sink):
    from repro.ws.config import WsConfig

    tree = TreeParams.binomial(b0=args.b0, q=args.q, seed=args.tree_seed,
                               engine=args.engine)
    config = WsConfig(chunk_size=args.chunk_size,
                      idle_strategy=args.idle_strategy)
    preset = args.preset
    if args.scenario:
        from repro.scenarios import get_scenario

        scenario = get_scenario(args.scenario)
        preset = scenario.preset
        config = scenario.apply(config, args.threads)
        print(f"scenario {scenario.name}: {scenario.description}")
    if args.victim_policy:
        from dataclasses import replace

        config = replace(config, victim_policy=args.victim_policy)
    res = run_experiment(args.algorithm, tree=tree, threads=args.threads,
                         preset=preset, config=config,
                         verify=not args.no_verify, faults=plan, tracer=sink,
                         queue=args.queue, fastpath=args.fastpath)
    print(res.summary())
    print(f"working-state share: {100 * res.working_fraction:.1f}%")
    if res.dup_work:
        print(f"duplicated work: {res.dup_work} node(s) "
              f"(relaxed-steal ledger; total includes duplicates)")
    return res, f"lost work: {res.lost_work} node(s)"


def _run_serve(args: argparse.Namespace, plan, sink):
    from repro.service import ServiceConfig, parse_arrival_spec, run_service
    from repro.ws.config import WsConfig

    service = ServiceConfig(
        arrivals=parse_arrival_spec(args.arrivals), n_tasks=args.tasks,
        queue_capacity=args.queue_capacity, policy=args.policy,
        deadline=args.deadline, max_retries=args.max_retries,
        task_b0=args.task_b0, task_q=args.task_q, task_gran=args.task_gran,
        seed=args.service_seed)
    config = WsConfig(chunk_size=args.chunk_size,
                      idle_strategy=args.idle_strategy)
    res = run_service(service, threads=args.threads, preset=args.preset,
                      config=config, seed=args.seed, faults=plan,
                      tracer=sink, queue=args.queue,
                      fastpath=args.fastpath)
    print(res.summary())
    print(f"arrivals: {res.arrival_description}   "
          f"tasks: {res.service_description}")
    print(f"latency p50/p95/p99/max: {res.lat_p50 * 1e6:.1f} / "
          f"{res.lat_p95 * 1e6:.1f} / {res.lat_p99 * 1e6:.1f} / "
          f"{res.lat_max * 1e6:.1f} µs   goodput: {res.goodput:,.0f} tasks/s")
    if res.shed_total:
        shed = " ".join(f"{k}={v}" for k, v in sorted(res.shed.items()) if v)
        print(f"shed: {shed} ({100 * res.shed_fraction:.1f}% of admitted)")
    return res, f"lost: {res.lost_tasks} task(s), {res.lost_work} node(s)"


def _experiment(args: argparse.Namespace) -> int:
    """``experiment``: every block on stdout (progress on stderr), the
    files asked for, and exit 1 naming each claim that fails at this
    scale."""
    from pathlib import Path

    from repro.harness import experiments
    from repro.harness.io import save_csv, save_json
    from repro.harness.parallel import resolve_jobs

    resolve_jobs(args.jobs)
    if args.write:  # before any run: a missing block is bad input
        experiments.require_blocks(
            args.write, [e.id for e in experiments.select(args.ids)])
    outcomes = experiments.run_experiments(
        args.ids, args.scale, jobs=args.jobs,
        progress=lambda line: print(line, file=sys.stderr, flush=True))
    for o in outcomes:
        print(f"## {o.experiment.id} — {o.experiment.title}\n")
        print(o.markdown())
        print()
        stem = f"{o.scale}_{o.experiment.id}"
        if args.json:
            save_json(o.result, Path(args.json) / f"{stem}.json")
        if args.csv:
            save_csv(o.result, Path(args.csv) / f"{stem}.csv")
    if args.write:
        experiments.write_blocks(args.write, outcomes)
        print(f"wrote {len(outcomes)} block(s) to {args.write}", file=sys.stderr)
    failed = [(o, claim, detail) for o in outcomes
              for claim, detail in o.failures()]
    for o, claim, detail in failed:
        print(f"repro-uts: claim failed at {o.scale}: {o.experiment.id} "
              f"{claim.sentence!r} ({claim.ref}): {detail}", file=sys.stderr)
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        # Bad input, named: usage plus ``repro-uts: error: ...``, exit
        # status 2.  Anything else is a bug and keeps its traceback.
        parser.error(str(exc))


def _dispatch(args: argparse.Namespace) -> int:
    cmd = args.command
    if cmd == "run":
        return _run_command(args, _run_single)
    if cmd == "serve":
        return _run_command(args, _run_serve)
    if cmd == "experiment":
        return _experiment(args)
    if cmd == "scenarios":
        from repro.scenarios import SCENARIOS

        width = max(len(n) for n in SCENARIOS)
        for name in sorted(SCENARIOS):
            s = SCENARIOS[name]
            knobs = [f"preset={s.preset}"]
            if s.victim_policy:
                knobs.append(f"victim={s.victim_policy}")
            if s.speed_profile:
                knobs.append(f"speeds={s.speed_profile}")
            if s.adversaries:
                knobs.append(f"adversaries={s.adversaries}")
            print(f"{name:<{width}}  {s.description}")
            print(f"{'':<{width}}  [{' '.join(knobs)}; "
                  f"invariants {s.invariants}; {s.paper}]")
        return 0
    if cmd == "timeline":
        from repro.metrics import render_timeline
        from repro.obs import TraceSink

        sink = TraceSink()
        tree = TreeParams.binomial(b0=args.b0, q=args.q, seed=args.tree_seed)
        res = run_experiment(args.algorithm, tree=tree, threads=args.threads,
                             preset=args.preset, chunk_size=args.chunk_size,
                             tracer=sink, verify=True)
        print(res.summary())
        print(render_timeline(sink, args.threads, res.sim_time,
                              width=args.width))
        return 0
    raise AssertionError(f"unhandled command {cmd}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
