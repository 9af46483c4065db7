#!/usr/bin/env python
"""Profile the simulation hot path with cProfile.

Runs a figure sweep (serial, cache on; by default the whole
``fig4[quick]`` sweep, whose k in {2, 8, 32} slice is the ledger's
``fig4-pure`` / ``fig4-fast`` workload) under :mod:`cProfile` and
prints the top-N functions, so "where do the events/sec go?" has a
one-command answer::

    PYTHONPATH=src python tools/profile_run.py                 # fig4[quick]
    PYTHONPATH=src python tools/profile_run.py --top 40
    PYTHONPATH=src python tools/profile_run.py --sort cumtime
    PYTHONPATH=src python tools/profile_run.py --out profile.pstats

``--threads``, ``--algorithm``, ``--chunk-size`` and ``--idle-strategy``
narrow the sweep to one cell shape, e.g. the 4096-thread park cell the
victim-scan kernel (docs/performance.md, "The O(active) engine") was
sized from::

    PYTHONPATH=src python tools/profile_run.py --threads 4096 \
        --idle-strategy park --algorithm upc-term-rapdif --chunk-size 4

Notes for reading the output (see docs/performance.md, "How to
measure"):

* cProfile adds per-call overhead, inflating call-heavy frames (the
  engine loop, ``batch_expand``) by roughly 3x relative to their real
  share -- compare *ratios between runs*, not absolute seconds.
* ``tottime`` (time inside the frame itself) is the optimization
  signal; ``cumtime`` mostly mirrors the generator delegation chain.
* The ``cold start`` header line is what this process paid before the
  profiled sweep (every import the profiler makes, the tree, the first
  cell's machine and algorithm), unprofiled: the part of a run the
  ledger books as ``setup_s``.
* On the compiled backend the ``python share`` line is the profiled
  time outside ``_core.run``'s own frame (the Python the C loop still
  resumes: protocol methods, cost charging, the message layer) over
  the profiled total, and how often each phase type handed control
  back to Python: *bounces* resume the worker with a value to serve (a
  steal attempt the phase does not claim itself -- a stock lock-based
  claim runs inside ``SearchPhase`` and never bounces -- a request, a
  message), *ends* with None (the phase finished); a ``SearchPhase``
  waiting in its streamlined barrier counts its bounces apart, as
  ``barrier bounces`` (declare / service / steal / recover).  The bounces are counted on one more, unprofiled pass
  whose process bodies are wrapped (docs/performance.md, "The compiled
  fastpath").
* The ``memory`` line builds and spawns the first cell again under
  :mod:`tracemalloc` (MiB, bytes per rank), then runs it: ``run peak``
  is the most that cell's run held traced at once, machine included.
  The ``collector`` line is :data:`gc.callbacks` over the profiled
  sweep: collections and seconds per generation (docs/performance.md,
  "Memory per rank").
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import gc
import itertools
import os
import pstats
import sys
import time
import tracemalloc
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

_T0 = time.perf_counter()

from repro import fastpath  # noqa: E402
from repro.harness.config import setup_for  # noqa: E402
from repro.harness.parallel import JobSpec, execute_jobs  # noqa: E402
from repro.harness.runner import expected_node_count, tree_for  # noqa: E402
from repro.net.presets import get_preset  # noqa: E402
from repro.pgas.machine import Machine  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.ws.algorithms import get_algorithm  # noqa: E402
from repro.ws.config import WsConfig  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0


def build_cell(job: JobSpec) -> Machine:
    """``job``'s machine with its algorithm's threads spawned."""
    machine = Machine(threads=job.threads, net=get_preset(job.preset),
                      fastpath=job.config.fastpath, seed=job.seed)
    algo = get_algorithm(job.algorithm)(machine, tree_for(job.tree),
                                        job.config)
    machine.spawn_all(algo.thread_main)
    return machine


def memory_line(job: JobSpec) -> str:
    """``job``'s cell built, spawned and run under tracemalloc."""
    tree_for(job.tree)  # cached: not the cell's
    tracemalloc.start()
    try:
        machine = build_cell(job)
        built = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        machine.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    mib = 1 << 20
    return (f"memory: first cell built {built / mib:.1f} MiB "
            f"({built / job.threads:.0f} B a rank), run peak "
            f"{peak / mib:.1f} MiB ({job.algorithm}, {job.threads} threads)")


class CollectorClock:
    """Collections and seconds per generation, from ``gc.callbacks``."""

    def __init__(self) -> None:
        self.count = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self._t0 = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            gen = info["generation"]
            self.count[gen] += 1
            self.seconds[gen] += time.perf_counter() - self._t0

    def line(self) -> str:
        gens = ", ".join(f"gen{g} {n} in {s:.3f} s" for g, (n, s)
                         in enumerate(zip(self.count, self.seconds)))
        return (f"collector: {gens} ({sum(self.seconds):.3f} s over the "
                "profiled sweep)")


#: What a ``SearchPhase`` bounces from its streamlined barrier, by value.
BARRIER_BOUNCES = ("declare", "service", "steal", "recover")


class CountedBody:
    """A process body that counts the phase returns it is resumed by:
    ``(phase type, bounced)``, or ``("barrier", kind)`` for a bounce a
    ``SearchPhase`` made from its streamlined barrier (one of
    :data:`BARRIER_BOUNCES`)."""

    __slots__ = ("body", "counts", "phase_types", "phase")

    def __init__(self, body, counts: Counter, phase_types: tuple) -> None:
        self.body = body
        self.counts = counts
        self.phase_types = phase_types
        self.phase = None  # the phase last yielded, if any

    def send(self, value):
        phase = self.phase
        if phase is not None:
            if value is not None and getattr(phase, "in_barrier", 0):
                kind = (value if type(value) is str else
                        "service" if value is True else "steal")
                self.counts["barrier", kind] += 1
            else:
                self.counts[type(phase).__name__, value is not None] += 1
        awaited = self.body.send(value)
        self.phase = awaited if type(awaited) in self.phase_types else None
        return awaited

    def __next__(self):
        return self.send(None)

    def throw(self, exc):
        return self.body.throw(exc)


def count_bounces(grid) -> Counter:
    """``(phase type, bounced)`` -> returns to Python over ``grid``
    (the barrier's bounces apart), on an unprofiled pass with every
    process body wrapped."""
    core = fastpath.load_core()
    phase_types = (core.WorkPhase, core.SearchPhase, core.IdlePhase)
    counts: Counter = Counter()
    spawn = Simulator.spawn

    def counted(sim, body, name="", delay=0.0):
        return spawn(sim, CountedBody(body, counts, phase_types), name, delay)

    Simulator.spawn = counted
    try:
        execute_jobs(grid, 1)
    finally:
        Simulator.spawn = spawn
    return counts


def python_share_line(stats: pstats.Stats, bounces: Counter) -> str:
    """Profiled time outside ``_core.run``'s own frame, over the total,
    with each phase type's bounces (and ends) back into Python, and the
    ``SearchPhase`` barrier's bounces by kind."""
    total = stats.total_tt
    own = sum(row[2] for key, row in stats.stats.items()
              if key[2] == "<built-in method repro.fastpath._core.run>")
    per_type = ", ".join(
        f"{name} {bounces[name, True]} (+{bounces[name, False]} ends)"
        for name in ("WorkPhase", "SearchPhase", "IdlePhase"))
    barrier = ", ".join(f"{kind} {bounces['barrier', kind]}"
                        for kind in BARRIER_BOUNCES)
    return (f"python share: {(total - own) / total:.2f} ({total - own:.3f} "
            f"of {total:.3f} s profiled outside _core.run's own frame); "
            f"bounces: {per_type}; barrier bounces: {barrier}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--figure", default="fig4")
    ap.add_argument("--scale", default="quick")
    ap.add_argument("--backend", choices=["auto", "pure", "fast"],
                    default="auto",
                    help="execution backend (repro.fastpath): profile "
                         "the pure-Python loops with 'pure', require "
                         "the compiled core with 'fast'")
    ap.add_argument("--threads", type=int, default=None,
                    help="override the figure's thread counts with one "
                         "value (profile scaling hot paths, e.g. 1024)")
    ap.add_argument("--algorithm", default=None,
                    help="profile this variant only (default: every "
                         "variant of the figure)")
    ap.add_argument("--chunk-size", type=int, default=None,
                    help="override the figure's chunk sizes with one value")
    ap.add_argument("--idle-strategy", choices=["poll", "park"],
                    default="poll",
                    help="idle strategy of every run (default poll)")
    ap.add_argument("--top", type=int, default=25,
                    help="number of functions to print (default 25)")
    ap.add_argument("--sort", default="tottime",
                    choices=["tottime", "cumtime", "ncalls"],
                    help="pstats sort key (default tottime)")
    ap.add_argument("--out", default=None,
                    help="also dump raw pstats data to this file "
                         "(inspect later with pstats/snakeviz)")
    args = ap.parse_args(argv)

    if args.backend != "auto":
        os.environ["REPRO_FASTPATH"] = args.backend
    backend = fastpath.resolve(args.backend)  # fail early on forced fast
    setup = setup_for(args.figure, args.scale)
    if args.threads is not None:
        setup = dataclasses.replace(setup, thread_counts=[args.threads])
    if args.algorithm is not None:
        setup = dataclasses.replace(setup, algorithms=[args.algorithm])
    if args.chunk_size is not None:
        setup = dataclasses.replace(setup, chunk_sizes=[args.chunk_size])
    info = fastpath.describe()
    core = ("core built" if info["core_available"]
            else f"core unavailable: {info['core_unavailable_reason']}")
    print(f"profiling {setup.describe()} idle={args.idle_strategy} "
          f"algorithms={setup.algorithms} (serial, cache on)", flush=True)
    print(f"fastpath backend: {backend} ({core})", flush=True)
    if backend == "fast":
        print("note: compiled frames (repro.fastpath._core) do not "
              "appear in cProfile output -- their cost shows up in "
              "the caller's tottime", flush=True)

    # run_sweep's own grid, with the idle strategy in each cell's config.
    t0 = time.perf_counter()
    expected = expected_node_count(setup.tree)
    tree_s = time.perf_counter() - t0
    grid = [
        JobSpec(index=i, algorithm=alg, tree=setup.tree, threads=threads,
                preset=setup.preset, chunk_size=k, expected_nodes=expected,
                config=WsConfig(chunk_size=k,
                                idle_strategy=args.idle_strategy))
        for i, (alg, threads, k) in enumerate(itertools.product(
            setup.algorithms, setup.thread_counts, setup.chunk_sizes))
    ]
    first = grid[0]
    t0 = time.perf_counter()
    build_cell(first)
    build_s = time.perf_counter() - t0
    print(f"cold start: imports {_IMPORT_S:.3f} s, tree "
          f"{tree_s:.3f} s ({expected} nodes), first cell's machine + "
          f"algorithm {build_s:.3f} s ({first.algorithm}, "
          f"{first.threads} threads)", flush=True)
    print(memory_line(first), flush=True)

    clock = CollectorClock()
    gc.callbacks.append(clock)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        runs = execute_jobs(grid, 1)
    finally:
        profiler.disable()
        gc.callbacks.remove(clock)

    events = sum(r.engine_events for r in runs)
    print(clock.line())
    stats = pstats.Stats(profiler)
    if backend == "fast":
        print(python_share_line(stats, count_bounces(grid)))
    print(f"{len(runs)} runs, {events} engine events "
          "(profiled wall-clock is inflated by cProfile overhead)\n")
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.out:
        stats.dump_stats(args.out)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
