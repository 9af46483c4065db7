"""Every pinned schedule, replayed against the golden corpus.

``schedules.json`` holds one entry per cell of :mod:`tests.golden.cells`
(see there for what an entry records) and ``python -m
tests.golden.record`` is its only writer.  Each cell is replayed on the
pure backend and, when the extension loads, on the compiled one --
untraced, and traced too where the cell is -- against its one entry:
traced and untraced, pure and compiled execute one schedule.  A monitor
cell is no exception: its compiled leg runs the C loop unless a
tie-break reorders its schedule.

The last tests read the corpus for what its cells exist to cross --
message faults, kills, stalls, parks, drains, planted corruptions
raised on time -- and line-trace the merged Working, Searching and
mpi-ws idle loops over named cells, failing if a branch is never taken.
"""

import inspect
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro.fastpath as fp
from repro.check.invariants import SCAN_PERIOD
from repro.ws.algorithms.base import AlgorithmBase
from repro.ws.algorithms.mpi_ws import MpiWorkStealing
from tests.golden.cells import (CELLS, MONITOR_PLANS, POLL_PLANS,
                                SEND_PLANS, STALE, check, mpi_plan, observe,
                                run, serve)

CORPUS = json.loads(Path(__file__).with_name("schedules.json").read_text())
#: The protocols whose Working state the compiled backend fuses (an
#: untraced run with no fault class beyond fail-stop and slowdown):
#: not ws-fencefree (its after-move hook), not tree-split (it
#: declines).
FUSABLE = {"upc-sharedmem", "upc-term", "upc-term-rapdif", "upc-distmem",
           "upc-distmem-hier", "mpi-ws", "service-ws"}

compiled = pytest.mark.skipif(not fp.available(),
                              reason="compiled core not built on this host")


def _replays():
    for cell in CELLS:
        for backend in ("pure", "fast"):
            for traced in (False, True) if cell.traced else (False,):
                yield pytest.param(
                    cell, backend, traced,
                    marks=compiled if backend == "fast" else (),
                    id=f"{cell.name} [{backend}{'-traced' * traced}]")


def test_the_corpus_holds_the_declared_cells():
    assert list(CORPUS) == [cell.name for cell in CELLS]


@pytest.mark.parametrize("cell, backend, traced", _replays())
def test_cell_executes_its_pinned_schedule(cell, backend, traced,
                                           monkeypatch):
    if backend == "fast":
        # a forced REPRO_FASTPATH=0 would make this leg pure too
        monkeypatch.delenv("REPRO_FASTPATH", raising=False)
    entry, algo, result = observe(cell, backend, traced)
    want = {k: v for k, v in CORPUS[cell.name].items()
            if traced or k != "records"}
    assert entry == want
    fusion = result and result.fusion
    if backend == "fast" and cell.api.startswith("check"):
        # the monitor is a tracer, so no phase fuses; the compiled loop
        # runs wherever no tie-break reorders the schedule
        tie_broken = "schedule_seed" in cell.kwargs or "defer" in cell.kwargs
        assert algo.machine.sim.fastpath_active is not tie_broken
        assert fusion is None or not fusion.bound
    elif backend == "fast":
        # not pure against pure: the compiled loop ran, and where the
        # protocol fuses every rank that worked and that the plan does
        # not kill did so in its WorkPhase; a killed rank binds nothing
        assert algo.machine.sim.fastpath_active
        rt = algo.faults_rt
        fused = (not traced and not (rt and rt.plan.non_failstop_classes)
                 and cell.kwargs.get("variant", "service-ws") in FUSABLE)
        assert ("work" in fusion.bound) == fused
        if fused:
            killed = {rank for rank, _ in rt.kill_schedule} if rt else set()
            worked = {st.rank for st in algo.stats if st.nodes_visited}
            assert fusion.victims == killed
            assert fusion.bound["work"] == len(worked - killed)
            if "search" in fusion.bound:  # bound at every spared start
                assert fusion.bound["search"] == fusion.threads - len(killed)
        else:
            assert not fusion.bound


# -- what the cells cross --------------------------------------------------------

def _summed(field, part=None):
    total = Counter()
    for entry in CORPUS.values():
        values = entry.get(field) or {}
        for key, value in (values.get(part, {}) if part else values).items():
            if isinstance(value, int):
                total[key] += value
    return total


def test_the_cells_cross_every_fault_class():
    faults = _summed("faults")
    for key in ("msgs_dropped", "msgs_duplicated", "msgs_delayed",
                "dup_requests_suppressed", "stale_responses",
                "steal_timeouts", "token_relaunches", "lock_stalls",
                "stale_windows", "threads_killed", "lost_nodes"):
        assert faults[key] > 0, (key, faults)
    kinds = _summed("records", "kinds")
    for kind in ("idle.park", "idle.wake", "steal.dup", "service",
                 "steal.deny", "msg.send", "recover.giveup"):
        assert kinds[kind] > 0, (kind, kinds)
    # the slowed ranks' charges moved time
    slow, clean = (CORPUS[run("upc-term", faults=plan).name]["sim_time"]
                   for plan in (SEND_PLANS["slow"], None))
    assert slow != clean


def test_the_streams_drain_shed_and_lose_tasks():
    service = _summed("service")
    assert service["completed"] + service["lost_tasks"] > 1000
    assert service["shed"] > 0 and service["lost_tasks"] > 0
    assert service["retries"] > 0
    assert sum(entry["lost_work"] for entry in CORPUS.values()
               if "service" in entry) > service["lost_tasks"]


def test_every_planted_corruption_is_raised_within_a_scan_period():
    lagged = 0
    for cell in CELLS:
        entry = CORPUS[cell.name]
        if cell.tamper is None:
            assert "verdict" not in entry, cell.name
            continue
        name = cell.tamper[0]
        verdict = entry["verdict"]
        assert verdict["type"] == "InvariantViolation"
        applied, raised = verdict["tampered_at"], verdict["emit"]
        assert applied is not None and f"emit #{raised}]" in \
            verdict["message"]
        assert 0 <= raised - applied < SCAN_PERIOD, cell.name
        if name.endswith("in-place"):
            # no full pass went by in silence
            assert "shared-region ledger" in verdict["message"]
            assert not any(emit % SCAN_PERIOD == 0
                           for emit in range(applied, raised))
            lagged += raised > applied
        elif name.endswith("copied"):
            assert "owned twice" in verdict["message"]
        else:
            assert raised == applied, cell.name
    assert lagged > 0


def test_the_monitor_pays_for_what_changed():
    """The fuzz base cell re-reads well under one stack an emit, scans
    by the set-size proof, and re-sums ``dup_extra`` only after writes."""
    base = CORPUS[check("upc-distmem", idle_strategy="poll").name]["monitor"]
    assert 0.2 < base["ledger_rechecks"] / base["emits"] < 0.8
    assert base["full_passes"] <= base["emits"] // SCAN_PERIOD + 3
    assert base["fast_scans"] > base["full_passes"]
    assert base["dup_resums"] == 0
    dups = CORPUS[check("ws-fencefree", fault_spec=MONITOR_PLANS["stale"],
                        fault_seed=0).name]
    assert dups["dup_work"] > 0
    assert 0 < dups["monitor"]["dup_resums"] * 10 < dups["monitor"]["emits"]


# -- the merged loops' branches are crossed --------------------------------------

#: Loop -> branch -> the source line only that branch executes (or the
#: first such line after another one).
MARKERS = {
    AlgorithmBase.working_phase: {
        "lock_bracket": "yield _T0",
        "contended_acquire": "fifo.contended_acquisitions += 1",
        "recheck": "if releasing or shared:",
        "poll_slot": "if req_slot.value is not None:",
        "poll_mail": "reply = self._working_msg(ctx, msg)",
        "after_move": "hook(rank, releasing)",
        "after_release": "yield from after(ctx)",
        "lock_stall": "yield Timeout(stall)",
        "faulted_pending": "pending[rank] = ev",
    },
    AlgorithmBase.search_phase: {
        "park": "yield gate.park(rank)",
        "wake_service": ("yield from self.service_request(ctx)",
                         "yield gate.park(rank)"),
        "abandon": "scan.abandon()",
        "idle_exit": "if not persist or (gate is None and not any_working):",
    },
    MpiWorkStealing.idle_phase: {
        "blocking_recv": "msg = yield from ep.recv()",
        "idle_phase_wait": "yield phase",
    },
}
#: Branches counted only when the frame shows they were taken: a
#: request waiting, a re-check the thief won, a persisting poll search
#: leaving because no one works, a contended acquire registered for
#: fail-stop recovery on a faulted run.
TAKEN = {
    "poll_slot": lambda f: f["req_slot"].value is not None,
    "recheck": lambda f: not (f["releasing"] or f["shared"]),
    "idle_exit": lambda f: (f["persist"] and f["gate"] is None
                            and not f["any_working"]),
    "faulted_pending": lambda f: f["faults"] is not None,
}


def _marked_lines():
    by_code = {}
    for loop, markers in MARKERS.items():
        lines, first = inspect.getsourcelines(loop)
        found = {}
        for name, text in markers.items():
            text, after = text if isinstance(text, tuple) else (text, None)
            start = 0 if after is None else next(
                i for i, line in enumerate(lines)
                if line.strip().startswith(after))
            hits = [first + i for i, line in enumerate(lines)
                    if i > start and line.strip().startswith(text)]
            assert hits and (after or len(hits) == 1), (name, hits)
            found[hits[0]] = name
        by_code[loop.__code__] = found
    return by_code


def crossings(cells, backend="pure"):
    """Replay ``cells`` under a line tracer scoped to the merged loops;
    how often each marked branch executed."""
    by_code = _marked_lines()
    counts = Counter()

    def scoped(frame, event, arg):
        marked = by_code.get(frame.f_code)
        if marked is None:
            return None

        def local(frame, event, arg):
            name = marked.get(frame.f_lineno) if event == "line" else None
            if name is not None:
                taken = TAKEN.get(name)
                counts[name] += taken is None or bool(taken(frame.f_locals))
            return local
        return local

    previous = sys.gettrace()
    sys.settrace(scoped)
    try:
        for cell in cells:
            assert cell.name in CORPUS, cell.name
            observe(cell, backend)
    finally:
        sys.settrace(previous)
    return counts


def test_the_cells_cross_every_branch_of_the_merged_loops():
    cells = [
        *(run(v, faults=POLL_PLANS[v])
          for v in ("upc-sharedmem", "upc-distmem", "ws-fencefree")),
        *(run(v, idle=idle) for v in POLL_PLANS if v != "service-ws"
          for idle in ("poll", "park")),
        serve(), serve(idle="park"),
        run("upc-distmem-hier", threads=64, chunk_size=4, idle="park"),
        run("upc-term", chunk_size=4, faults=STALE),
        run("mpi-ws", chunk_size=4, idle="park"),
        *(run("mpi-ws", chunk_size=4, faults=mpi_plan(kind, 8))
          for kind in ("drop", "dup")),
    ]
    counts = crossings(cells)
    names = [name for markers in MARKERS.values() for name in markers]
    assert all(counts[name] for name in names
               if name != "idle_phase_wait"), counts
    assert counts["idle_phase_wait"] == 0  # pure: no compiled wait


@compiled
def test_the_compiled_cells_wait_in_the_idle_phase(monkeypatch):
    monkeypatch.delenv("REPRO_FASTPATH", raising=False)
    counts = crossings([run("mpi-ws", chunk_size=4)], backend="fast")
    assert counts["idle_phase_wait"] > 0, counts
