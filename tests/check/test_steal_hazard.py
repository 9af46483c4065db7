"""The fault-free parked-request hazard, pinned.

The schedule harness's white-box sweep falsified a safety comment in
``upc-distmem``'s ``try_steal``: it claimed a steal request can never
land on a thief that is itself blocked awaiting a response fault-free
("nobody requests a requester").  In fact the probe->poke window spans
several network latencies, so a request aimed at a rank that *had*
work routinely arrives after that rank went searching, blocked, with
no deny loop running -- the hazard state occurs in every canonical
distmem run.

What keeps it benign fault-free is an ordering argument (now the
comment at the blocking yield): a deadlock needs a cycle of
blocked-with-parked-request edges, each edge ``i -> j`` needs i's
probe of j to precede j's NO_WORK poke, and every probe follows the
prober's own poke -- so a cycle implies ``poke(i) < poke(j)`` all the
way around, a contradiction.  These tests pin both halves: the hazard
*is* reachable (so the old comment stays dead), and every such run
still terminates with all invariants intact (so blocking bare remains
sound).  Under fault injection the argument breaks (stale probes) and
the deny-while-waiting loop takes over -- exercised here too.
"""

import pytest

from repro import run_experiment, TreeParams
from repro.check import InvariantMonitor, check_run


class HazardMonitor(InvariantMonitor):
    """Counts states where a request is parked on a blocked thief."""

    def __init__(self):
        super().__init__()
        self.hazards = 0

    def emit(self, time, thread, kind, fields=()):
        algo = self.algo
        if algo is not None and hasattr(algo, "response_events"):
            for r in range(algo.machine.n_threads):
                ev = algo.response_events[r]
                if ev is None or ev.fired or ev.scheduled:
                    continue  # r is not blocked on a steal right now
                if algo.request[r].value is not None:
                    self.hazards += 1  # ... but a request is parked on it
        super().emit(time, thread, kind, fields)


def _hazard_run(variant="upc-distmem", **kw):
    monitor = HazardMonitor()
    kwargs = dict(tree=TreeParams.binomial(b0=64, m=2, q=0.48, seed=1),
                  threads=8, preset="kittyhawk", chunk_size=4, verify=True)
    kwargs.update(kw)
    res = run_experiment(variant, tracer=monitor, **kwargs)
    monitor.final_check()
    return res, monitor


def test_requests_do_land_on_blocked_thieves_fault_free():
    """The falsified claim: the hazard state is reachable in the
    canonical fault-free schedule (this exact cell observes it)."""
    res, monitor = _hazard_run()
    assert monitor.hazards > 0
    assert res.total_nodes == 3009  # and the run is still correct


@pytest.mark.parametrize("variant", ["upc-distmem", "upc-distmem-hier"])
def test_hazard_runs_always_terminate_cleanly(variant):
    """No cycle ever completes: across a spread of trees the hazard
    recurs and every run still drains, terminates, and conserves."""
    for b0, q, seed in ((64, 0.48, 1), (32, 0.40, 7), (48, 0.47, 9)):
        res, monitor = _hazard_run(
            variant, tree=TreeParams.binomial(b0=b0, m=2, q=q, seed=seed))
        assert monitor.terminations_seen >= 1
        assert res.total_nodes > 0


def test_faulted_runs_take_the_deny_loop_instead():
    """With faults active the ordering argument is void; the
    deny-while-waiting loop keeps the protocol live through kills."""
    out = check_run("upc-distmem", fault_spec="kill=3@103us,stall=0.2",
                    fault_seed=0)
    assert out.ok, out.label()
