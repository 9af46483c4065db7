"""Pins for the hangs when the thread *declaring* termination is
fail-stopped before it has published the declaration.

Found by sweeping the kill **time** (every test and CI job before this
file killed at one fixed instant, ``kill=3@103us``): 6 kill-capable
variants x 3 trees x {4, 6} threads x every killable rank x kill at a
fraction of the cell's own fault-free ``sim_time`` x {poll, park}.
Late kills land inside the termination protocol, and three windows
there never closed:

* ``CancelableBarrier.enter_and_wait``: the last arriver sets
  ``terminated``, then yields inside ``ctx.unlock`` *before* waking the
  waiters.  Killed there, ``on_thread_death`` skipped its completion
  branch (``terminated`` was already set) and every waiter slept
  forever.  Fix: a death that finds waiters under a terminated barrier
  wakes them.
* ``StreamlinedBarrier.announce``: the announcer claims the
  announcement, then yields the broadcast ``Timeout``.  Killed there,
  the claim outlived it and the survivors' recovery test (nobody
  announcing and ``count == alive``) could never fire.  Fix: the
  barrier remembers the announcer's rank; its death before
  ``terminated`` withdraws the claim.
* Park: the parked termination loop was a hand copy of the polling one
  that never received the barrier-death recovery branch, and a parked
  waiter was not woken by a death that filled the barrier.  Fix: one
  loop for both idle strategies, and a death wakes the gate.

The hangs surfaced as ``EventLimitExceeded``, not as
``DeadlockError``: the fault runtime's heartbeat and checker daemons
keep the event queue non-empty, so the engine never sees the survivors
blocked on an empty heap and the run spins until its event budget is
gone.  Every reproducer below exhausts ``max_events=300_000`` (at
t = 2.7-4.3 simulated seconds; a cell that terminates needs under
5,000 events and 2 ms) at the parent commit.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import parse_fault_spec
from repro.harness.runner import expected_node_count, run_experiment
from repro.uts.params import TreeParams
from repro.ws.config import WsConfig

KILL_CAPABLE = ["upc-sharedmem", "upc-term", "upc-term-rapdif",
                "upc-distmem", "upc-distmem-hier", "mpi-ws"]


def run_killed(variant, tree_seed, threads, idle, spec):
    """One single-kill cell; returns (terminated nodes + lost, oracle)."""
    tree = TreeParams.binomial(b0=64, m=2, q=0.48, seed=tree_seed)
    res = run_experiment(
        variant, tree=tree, threads=threads,
        config=WsConfig(chunk_size=4, idle_strategy=idle),
        faults=parse_fault_spec(spec, seed=0), max_events=300_000)
    return res.total_nodes + res.lost_work, expected_node_count(tree)


@pytest.mark.parametrize("variant, tree_seed, threads, idle, spec", [
    # the cancelable barrier's declarer dies inside its unlock
    ("upc-sharedmem", 1, 6, "poll", "kill=4@0.000438795935"),
    ("upc-sharedmem", 1, 6, "park", "kill=4@0.000438795935"),
    # the streamlined announcer dies inside its broadcast
    ("upc-term", 1, 4, "poll", "kill=1@0.000376348923"),
    ("upc-term-rapdif", 1, 4, "poll", "kill=3@0.000366217543"),
    ("upc-distmem", 1, 4, "poll", "kill=1@0.000396387817"),
    ("upc-distmem-hier", 1, 4, "poll", "kill=1@0.000396387817"),
    # park: no recovery branch, no wake on a barrier-filling death
    ("upc-term", 1, 4, "park", "kill=1@0.000369028518"),
    ("upc-distmem", 1, 4, "park", "kill=3@0.000381825974"),
    ("upc-distmem-hier", 1, 4, "park", "kill=3@0.000381825974"),
    ("upc-term-rapdif", 3, 4, "park", "kill=2@0.000235184586"),
])
def test_declarer_death_terminates(variant, tree_seed, threads, idle, spec):
    accounted, oracle = run_killed(variant, tree_seed, threads, idle, spec)
    assert accounted == oracle


@lru_cache(maxsize=None)
def fault_free_sim_time(variant, tree_seed, threads, idle):
    tree = TreeParams.binomial(b0=64, m=2, q=0.48, seed=tree_seed)
    return run_experiment(
        variant, tree=tree, threads=threads,
        config=WsConfig(chunk_size=4, idle_strategy=idle)).sim_time


@settings(max_examples=60, deadline=None)
@given(variant=st.sampled_from(KILL_CAPABLE),
       tree_seed=st.integers(1, 3),
       threads=st.sampled_from([4, 6]),
       idle=st.sampled_from(["poll", "park"]),
       rank_draw=st.integers(0, 4),
       fraction=st.floats(0.8, 0.9995))
def test_late_single_kill_terminates_and_conserves(
        variant, tree_seed, threads, idle, rank_draw, fraction):
    """A kill late in the run lands in the termination protocol; every
    such cell must still terminate with the loss exactly accounted."""
    rank = 1 + rank_draw % (threads - 1)  # rank 0 cannot be killed
    at = fraction * fault_free_sim_time(variant, tree_seed, threads, idle)
    accounted, oracle = run_killed(variant, tree_seed, threads, idle,
                                   f"kill={rank}@{at:.12f}")
    assert accounted == oracle
