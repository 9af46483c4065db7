"""Satellite audit: ``run(until=...)`` segments vs one-shot ``run()``.

``Simulator.run`` pops an event before it can see the deadline and
*pushes it back* unconsumed when it lies beyond ``until``.  These
tests pin that pause/resume is invisible: running a simulation to
completion in arbitrarily-cut segments must execute the exact same
schedule -- same events, same order, same final state -- as running it
in one shot, including under a tie-break policy.  (The variant x queue
x policy x segmentation cross product on one fixed cut lives in
``tests/sim/test_run_loop_matrix.py``.)
"""

import random

import pytest

from repro.check import RandomTieBreak
from repro.harness.runner import tree_for
from repro.pgas.machine import Machine
from repro.net.presets import get_preset
from repro.obs import TraceSink
from repro.sim.engine import Simulator, Timeout
from repro.uts.params import TreeParams
from repro.ws.algorithms import get_algorithm
from repro.ws.config import WsConfig


# -- pure-engine property test -------------------------------------------------


def _soup(sim, log, n_procs=6, n_steps=40, seed=0):
    """A deterministic process soup dense in same-timestamp collisions:
    integer-valued timeouts guarantee the heap constantly holds ties,
    the worst case for a pop/push-back boundary bug."""
    rng = random.Random(seed)
    events = [sim.event(name=f"ev{i}") for i in range(n_procs)]

    def body(me):
        for step in range(n_steps):
            roll = rng.randrange(4)  # drawn at definition-determined order
            if roll < 3:
                yield Timeout(float(rng.randrange(1, 4)))
                log.append((sim.now, me, step))
            else:
                ev = events[me]
                if not (ev.fired or ev.scheduled):
                    ev.succeed(me, delay=float(rng.randrange(0, 3)))
                yield Timeout(1.0)
                log.append((sim.now, me, step))

    for i in range(n_procs):
        sim.spawn(body(i), name=f"P{i}")


def _one_shot(seed, tie_break=None):
    sim = Simulator(tie_break=tie_break)
    log = []
    _soup(sim, log, seed=seed)
    final = sim.run()
    return final, sim.events_processed, log


def _segmented(seed, cuts, tie_break=None):
    sim = Simulator(tie_break=tie_break)
    log = []
    _soup(sim, log, seed=seed)
    for until in cuts:
        sim.run(until=until)
        assert sim.now == until or not sim._heap
    final = sim.run()
    return final, sim.events_processed, log


@pytest.mark.parametrize("seed", range(5))
def test_segmented_soup_matches_one_shot(seed):
    final, events, log = _one_shot(seed)
    # Cut everywhere interesting: between ticks, exactly on integer
    # timestamps (events AT the deadline must run), and densely.
    for cuts in ([final / 3, 2 * final / 3],
                 [1.0, 2.0, 3.0, 5.0, 8.0, 13.0],
                 [i / 2 for i in range(1, int(final * 2) + 1)]):
        f2, e2, log2 = _segmented(seed, cuts)
        assert (f2, e2) == (final, events)
        assert log2 == log


@pytest.mark.parametrize("seed", range(3))
def test_segmented_soup_matches_one_shot_under_policy(seed):
    """The push-back path is equivalent under a permuting policy too."""
    final, events, log = _one_shot(seed, tie_break=RandomTieBreak(seed))
    f2, e2, log2 = _segmented(seed, [1.0, final / 2, final - 0.25],
                              tie_break=RandomTieBreak(seed))
    assert (f2, e2) == (final, events)
    assert log2 == log


def test_pause_at_boundary_timestamp_is_exact():
    """An event scheduled exactly at ``until`` runs in that segment;
    the next event strictly after it does not."""
    sim = Simulator()
    log = []

    def body():
        yield Timeout(1.0)
        log.append(sim.now)
        yield Timeout(1.0)
        log.append(sim.now)

    sim.spawn(body(), name="P")
    sim.run(until=1.0)
    assert log == [1.0] and sim.now == 1.0
    sim.run()
    assert log == [1.0, 2.0]


# -- full-harness property test ------------------------------------------------


def _distmem_setup(tracer):
    machine = Machine(threads=8, net=get_preset("kittyhawk"), seed=0,
                      tracer=tracer)
    tree = tree_for(TreeParams.binomial(b0=64, m=2, q=0.48, seed=1))
    algo = get_algorithm("upc-distmem")(machine, tree, WsConfig(chunk_size=4))
    machine.spawn_all(algo.thread_main)
    return machine, algo


def test_segmented_experiment_matches_one_shot():
    """A real work-stealing run driven in interleaved ``until=``
    segments reproduces the one-shot run event for event."""
    t1 = TraceSink()
    m1, a1 = _distmem_setup(t1)
    final = m1.run()
    one_shot_events = m1.sim.events_processed

    t2 = TraceSink()
    m2, a2 = _distmem_setup(t2)
    for frac in (0.1, 0.25, 0.26, 0.5, 0.75, 0.9, 0.99):
        m2.sim.run(until=final * frac)
    assert m2.run() == final
    assert m2.sim.events_processed == one_shot_events
    assert a2.total_nodes == a1.total_nodes
    assert tuple(t2.records) == tuple(t1.records)


def test_fig4_test_cells_segment_cleanly():
    """Every fig4[test] cell re-driven in fixed-width ``until=``
    segments reproduces its own one-shot run (the sweep the
    tests/obs determinism pins cover)."""
    from repro.harness.config import setup_for
    from repro.harness.runner import run_experiment

    setup = setup_for("fig4", "test")
    for algorithm in setup.algorithms:
        for k in setup.chunk_sizes:
            one_shot = run_experiment(
                algorithm, tree=setup.tree, threads=setup.thread_counts[0],
                preset=setup.preset, chunk_size=k)
            machine = Machine(threads=setup.thread_counts[0],
                              net=get_preset(setup.preset), seed=0)
            algo = get_algorithm(algorithm)(
                machine, tree_for(setup.tree), WsConfig(chunk_size=k))
            machine.spawn_all(algo.thread_main)
            while machine.sim._heap:
                machine.sim.run(until=machine.sim.now + 5e-5)
            machine.sim.check_quiescent()
            assert machine.sim.events_processed == one_shot.engine_events, \
                f"{algorithm} k={k} diverged under segmentation"
            assert algo.total_nodes == one_shot.total_nodes
