#!/usr/bin/env python
"""Profile the simulation hot path with cProfile.

Runs a figure sweep (serial, cache on -- the same workload
``bench_engine.py`` times) under :mod:`cProfile` and prints the top-N
functions, so "where do the events/sec go?" has a one-command answer::

    PYTHONPATH=src python tools/profile_run.py                 # fig4[quick]
    PYTHONPATH=src python tools/profile_run.py --top 40
    PYTHONPATH=src python tools/profile_run.py --sort cumtime
    PYTHONPATH=src python tools/profile_run.py --out profile.pstats

``--threads``, ``--algorithm``, ``--chunk-size`` and ``--idle-strategy``
narrow the sweep to one cell shape, e.g. the 4096-thread park cell the
victim-scan kernel (docs/performance.md) was sized from::

    PYTHONPATH=src python tools/profile_run.py --threads 4096 \
        --idle-strategy park --algorithm upc-term-rapdif --chunk-size 4

Notes for reading the output (see docs/performance.md):

* cProfile adds per-call overhead, inflating call-heavy frames (the
  engine loop, ``batch_expand``) by roughly 3x relative to their real
  share -- compare *ratios between runs*, not absolute seconds.
* ``tottime`` (time inside the frame itself) is the optimization
  signal; ``cumtime`` mostly mirrors the generator delegation chain.
* The ``cold start`` header line is what this process paid before the
  profiled sweep (``import repro``, the tree, the first cell's machine
  and algorithm), unprofiled: the part of a run the ledger books as
  ``setup_s``.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import itertools
import os
import pstats
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

_T0 = time.perf_counter()

from repro import fastpath  # noqa: E402
from repro.harness.config import setup_for  # noqa: E402
from repro.harness.parallel import JobSpec, execute_jobs  # noqa: E402
from repro.harness.runner import expected_node_count, tree_for  # noqa: E402
from repro.net.presets import get_preset  # noqa: E402
from repro.pgas.machine import Machine  # noqa: E402
from repro.ws.algorithms import get_algorithm  # noqa: E402
from repro.ws.config import WsConfig  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0


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
    print(f"fastpath backend: {backend} ({core}; numpy "
          f"{'yes' if info['numpy_available'] else 'no'})", flush=True)
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
    machine = Machine(threads=first.threads, net=get_preset(first.preset),
                      fastpath=first.config.fastpath)
    algo = get_algorithm(first.algorithm)(machine, tree_for(first.tree),
                                          first.config)
    machine.spawn_all(algo.thread_main)
    build_s = time.perf_counter() - t0
    del machine, algo
    print(f"cold start: import repro {_IMPORT_S:.3f} s, tree "
          f"{tree_s:.3f} s ({expected} nodes), first cell's machine + "
          f"algorithm {build_s:.3f} s ({first.algorithm}, "
          f"{first.threads} threads)", flush=True)

    profiler = cProfile.Profile()
    profiler.enable()
    runs = execute_jobs(grid, 1)
    profiler.disable()

    events = sum(r.engine_events for r in runs)
    print(f"{len(runs)} runs, {events} engine events "
          "(profiled wall-clock is inflated by cProfile overhead)\n")
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.out:
        stats.dump_stats(args.out)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
