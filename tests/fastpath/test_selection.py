"""Backend selection: resolve(), the env override, and config surface.

The contract under test (see ``repro/fastpath/__init__.py``):

* ``"pure"`` always resolves to pure; ``"auto"`` prefers the compiled
  core but silently falls back; an *explicit* ``"fast"`` raises
  :class:`ConfigError` when the extension is unavailable.
* ``REPRO_FASTPATH`` overrides the request from either direction.
* The knob is reachable from ``WsConfig``, ``Simulator``, and
  ``run_experiment``, and ``Simulator.fastpath_active`` reports what
  actually got selected.
"""

import pytest

import repro.fastpath as fp
from repro.errors import ConfigError
from repro.sim.engine import Simulator
from repro.ws.config import WsConfig


@pytest.fixture
def clean_env(monkeypatch):
    """No REPRO_FASTPATH inherited from the invoking shell."""
    monkeypatch.delenv("REPRO_FASTPATH", raising=False)


@pytest.fixture
def core_absent(monkeypatch):
    """Pretend the extension failed to import (cache poked directly)."""
    monkeypatch.setattr(fp, "_core_loaded", True)
    monkeypatch.setattr(fp, "_core_mod", None)
    monkeypatch.setattr(fp, "_core_error", "extension not built (test)")


@pytest.fixture
def core_present(monkeypatch):
    """Pretend the extension is importable (any truthy module object)."""
    monkeypatch.setattr(fp, "_core_loaded", True)
    monkeypatch.setattr(fp, "_core_mod", object())
    monkeypatch.setattr(fp, "_core_error", None)


# -- resolve() -------------------------------------------------------

def test_pure_always_resolves_pure(clean_env, core_present):
    assert fp.resolve("pure") == "pure"


def test_auto_prefers_fast_when_available(clean_env, core_present):
    assert fp.resolve("auto") == "fast"
    assert fp.resolve(None) == "fast"


def test_auto_falls_back_when_unavailable(clean_env, core_absent):
    assert fp.resolve("auto") == "pure"
    assert not fp.available()
    assert "not built" in fp.why_unavailable()


def test_forced_fast_unavailable_raises(clean_env, core_absent):
    with pytest.raises(ConfigError, match="unavailable"):
        fp.resolve("fast")


def test_forced_fast_available_resolves_fast(clean_env, core_present):
    assert fp.resolve("fast") == "fast"


def test_bad_request_raises(clean_env):
    with pytest.raises(ConfigError, match="fastpath"):
        fp.resolve("on")
    with pytest.raises(ConfigError, match="fastpath"):
        fp.resolve("off")


# -- REPRO_FASTPATH override -----------------------------------------

@pytest.mark.parametrize("raw", ["0", "off", "pure", "false"])
def test_env_forces_pure_over_any_request(monkeypatch, core_present, raw):
    monkeypatch.setenv("REPRO_FASTPATH", raw)
    assert fp.env_mode() == "pure"
    assert fp.resolve("auto") == "pure"
    assert fp.resolve("fast") == "pure"  # env wins, no error


@pytest.mark.parametrize("raw", ["1", "on", "fast", "true"])
def test_env_forces_fast(monkeypatch, core_present, raw):
    monkeypatch.setenv("REPRO_FASTPATH", raw)
    assert fp.env_mode() == "fast"
    assert fp.resolve("pure") == "fast"


def test_env_forced_fast_unavailable_raises(monkeypatch, core_absent):
    monkeypatch.setenv("REPRO_FASTPATH", "1")
    with pytest.raises(ConfigError, match="unavailable"):
        fp.resolve("auto")


@pytest.mark.parametrize("raw", ["", "auto"])
def test_env_auto_defers_to_request(monkeypatch, core_absent, raw):
    monkeypatch.setenv("REPRO_FASTPATH", raw)
    assert fp.env_mode() is None
    assert fp.resolve("pure") == "pure"
    assert fp.resolve("auto") == "pure"


def test_env_garbage_raises(monkeypatch):
    monkeypatch.setenv("REPRO_FASTPATH", "sometimes")
    with pytest.raises(ConfigError, match="REPRO_FASTPATH"):
        fp.env_mode()


# -- config / simulator surface --------------------------------------

def test_wsconfig_rejects_bad_fastpath():
    with pytest.raises(ConfigError, match="fastpath"):
        WsConfig(fastpath="off")


@pytest.mark.parametrize("mode", [None, "auto", "pure", "fast"])
def test_wsconfig_accepts_modes(mode, clean_env, core_present):
    assert WsConfig(fastpath=mode).fastpath == mode


def test_simulator_pure_never_active(clean_env):
    sim = Simulator(fastpath="pure")
    assert sim.fastpath == "pure"
    assert not sim.fastpath_active


def test_simulator_fast_active_when_built(clean_env):
    if not fp.available():
        pytest.skip("extension not built on this host")
    sim = Simulator(fastpath="fast")
    assert sim.fastpath == "fast"
    assert sim.fastpath_active


@pytest.mark.parametrize("threads", [16, 512, 4096])
def test_auto_queue_keeps_the_compiled_loop_at_every_size(clean_env,
                                                         monkeypatch,
                                                         threads):
    """``queue="auto"`` used to pick the bucket queue at >= 512 threads,
    which the heap-only compiled loop cannot drive: the machines the
    paper's headline is about silently ran no compiled code."""
    if not fp.available():
        pytest.skip("extension not built on this host")
    from repro.net.presets import KITTYHAWK
    from repro.pgas.machine import Machine

    def active(**kw):
        return Machine(threads=threads, net=KITTYHAWK, **kw).sim.fastpath_active

    assert active() and active(queue="auto") and active(queue="heap")
    assert not active(queue="bucket")
    assert not active(tie_break=lambda seq: seq)
    assert not active(fastpath="pure")
    monkeypatch.setenv("REPRO_FASTPATH", "pure")
    assert not active(queue="auto")


def test_simulator_rejects_bad_mode(clean_env):
    with pytest.raises(ConfigError, match="fastpath"):
        Simulator(fastpath="compiled")


def test_describe_inventory_keys(clean_env):
    info = fp.describe()
    assert set(info) == {"core_available", "core_unavailable_reason",
                         "resolved_auto", "env"}
    assert info["resolved_auto"] in ("pure", "fast")


# -- checked cells resolve their backend like any run -----------------
#
# check_run / check_service_run pass no backend: a monitored or fuzzed
# cell resolves REPRO_FASTPATH, then auto, as every run does.  Two
# rules, not the checker, decide which code runs: the monitor is a
# tracer, which keeps the fused C phases off, and a tie-break keeps the
# C run loop off.  Where the extension is built every other cell runs
# the compiled loop (a park cell the compiled scan kernel too), so the
# monitor and the fuzzer check the compiled backend.

from repro.check import check_run, check_service_run  # noqa: E402
from repro.check.invariants import InvariantMonitor  # noqa: E402
from repro.metrics.report import Fusion  # noqa: E402
from repro.obs import TraceSink  # noqa: E402
from repro.ws.policies import ProbeScan  # noqa: E402


class AlgoSpy(TraceSink):
    """A tracer that keeps the algorithm instance it was attached to."""

    def attach_algorithm(self, algo):
        self.algo = algo


@pytest.fixture
def backend_spy(monkeypatch):
    """Record, for every checked run: the resolved backend, whether the
    C loop ran, whether the scan kernel is C."""
    seen = []
    orig = InvariantMonitor.final_check

    def spy(self):
        sim, algo = self.machine.sim, self.algo
        seen.append((sim.fastpath, sim.fastpath_active,
                     algo._scan_probe is not ProbeScan.probe))
        return orig(self)

    monkeypatch.setattr(InvariantMonitor, "final_check", spy)
    return seen


CHECK_CELL = dict(threads=4, chunk_size=2, b0=24, q=0.4)
#: The gate's reason wherever the run loop is Python.
PYTHON_LOOP = "a Python run loop (pure backend, tie-break or bucket queue)"
CHECK_EXTRAS = [
    {},                                                  # canonical
    {"schedule_seed": 5},                                # tie-break
    {"defer": (10,)},                                    # deferral
    {"idle_strategy": "park"},                           # idle gate
    {"fault_spec": "stale=0.3,stale-window=40us"},       # fault plan
]


def _tie_broken(extra):
    return "schedule_seed" in extra or "defer" in extra


@pytest.mark.parametrize("extra", CHECK_EXTRAS)
@pytest.mark.parametrize("variant", ["upc-distmem", "ws-fencefree",
                                     "tree-split"])
def test_checked_cells_run_compiled_unless_tie_broken(clean_env, backend_spy,
                                                      variant, extra):
    if not fp.available():
        pytest.skip("extension not built on this host")
    out = check_run(variant, **CHECK_CELL, **extra)
    assert out.ok, f"{out.error_type}: {out.error}"
    assert backend_spy == [("fast", not _tie_broken(extra), True)]
    assert not out.result.fusion.bound  # the monitor is a tracer


@pytest.mark.parametrize("extra", [{}, {"schedule_seed": 2}])
def test_service_cells_run_compiled_unless_tie_broken(clean_env, backend_spy,
                                                      extra):
    if not fp.available():
        pytest.skip("extension not built on this host")
    out = check_service_run(threads=4, n_tasks=20, **extra)
    assert out.ok, f"{out.error_type}: {out.error}"
    assert backend_spy == [("fast", not _tie_broken(extra), True)]
    assert not out.result.fusion.bound


@pytest.mark.parametrize("extra", CHECK_EXTRAS)
@pytest.mark.parametrize("variant", ["upc-distmem", "ws-fencefree",
                                     "tree-split"])
def test_checked_cells_obey_the_forced_pure_env(monkeypatch, backend_spy,
                                                variant, extra):
    """``REPRO_FASTPATH=0`` reaches a checked cell as it reaches any
    run, on every host."""
    monkeypatch.setenv("REPRO_FASTPATH", "0")
    out = check_run(variant, **CHECK_CELL, **extra)
    assert out.ok, f"{out.error_type}: {out.error}"
    assert backend_spy == [("pure", False, False)]
    assert set(out.result.fusion.declined.values()) == {PYTHON_LOOP}


def test_plain_run_on_same_host_selects_compiled(clean_env):
    """Outside the checker too, auto compiles the run loop here."""
    if not fp.available():
        pytest.skip("extension not built on this host")
    from repro import TreeParams, run_experiment
    from repro.obs import TraceSink

    class MachineSpy(TraceSink):
        def attach_algorithm(self, algo):
            self.sim = algo.machine.sim

    spy = MachineSpy()
    run_experiment("upc-distmem",
                   tree=TreeParams.binomial(b0=24, q=0.4, seed=1),
                   threads=4, preset="kittyhawk", chunk_size=2,
                   tracer=spy)
    assert spy.sim.fastpath_active


def test_plain_run_on_tree_params_fuses(clean_env):
    """``run_experiment(TreeParams)`` resolves to the cached
    materialized tree, so the public one-call API runs the fused C
    phases, not just the compiled loop under Python phases."""
    if not fp.available():
        pytest.skip("extension not built on this host")
    from repro import TreeParams, run_experiment

    spy = AlgoSpy(enabled=False)  # an enabled tracer is a fusion gate
    res = run_experiment("upc-distmem",
                         tree=TreeParams.binomial(b0=24, q=0.4, seed=1),
                         threads=4, chunk_size=2, tracer=spy)
    assert spy.algo.machine.sim.fastpath_active
    assert res.fusion == Fusion(4, dict(work=4, search=4, barrier=4),
                                {"claim": NO_CLAIM})
    assert spy.algo._scan_probe is fp.load_core().scan_probe
    assert (res.engine_events, res.sim_time) == (158, 6.319245188284519e-05)


def test_plain_service_run_fuses(clean_env):
    """``run_service`` hands the pool a workload on the materialised
    layout (the cached task forest), so a plain stream runs the
    compiled Working state; a traced one keeps the generator."""
    if not fp.available():
        pytest.skip("extension not built on this host")
    from repro.service import ServiceConfig, run_service

    fused = {}
    for traced in (False, True):
        spy = AlgoSpy(enabled=traced)
        res = run_service(ServiceConfig(n_tasks=40), threads=4, tracer=spy)
        assert spy.algo.machine.sim.fastpath_active
        fused[traced] = (set(res.fusion.bound), res.engine_events,
                         res.sim_time)
    assert fused[False] == ({"work", "search", "claim"},) + fused[True][1:]
    assert fused[True][0] == set()


# -- which protocols fuse ----------------------------------------------
#
# The fusion gate's answer, read off the run's result: the members each
# variant binds, and why it declines the rest -- one row per decline
# reason.  The fence-free row is the one a naive merge gets wrong: it
# has the same (inherited) loop and binder as everyone else, and the C
# WorkPhase knows nothing of its era log.

from repro.faults.plan import parse_fault_spec  # noqa: E402
from repro.ws.algorithms import ALGORITHMS  # noqa: E402
from repro.ws.algorithms.distmem import UpcDistMem  # noqa: E402
from repro.ws.algorithms.lock_based import UpcTerm, UpcTermRapdif  # noqa: E402


class _OwnLoop(UpcDistMem):
    name = "own-loop"

    def working_phase(self, ctx):
        return (yield from super().working_phase(ctx))


class _Hooked(UpcDistMem):
    name = "hooked"

    def _after_move(self, rank, releasing):
        pass


class _OwnAfterRelease(UpcTerm):
    name = "own-after-release"

    def after_release(self, ctx):
        return (yield from super().after_release(ctx))


class _OwnClaim(UpcTermRapdif):
    name = "own-claim"

    def _claim(self, ctx, victim):
        return (yield from super()._claim(ctx, victim))


SEARCHING_MEMBERS = ("work", "search", "claim", "barrier")
NO_CLAIM = "its claim is Python: each attempt bounces to try_steal"


def _all(why):
    return dict.fromkeys(SEARCHING_MEMBERS, why)


#: (row id, variant, run keywords, the gate's declines); every other
#: member of the variant binds.
FUSION_MATRIX = [
    ("upc-sharedmem", "upc-sharedmem", {},
     {"barrier": "CancelableBarrierTermination has no compiled barrier"}),
    ("upc-term", "upc-term", {}, {}),
    ("upc-term-rapdif", "upc-term-rapdif", {}, {}),
    ("upc-distmem", "upc-distmem", {}, {"claim": NO_CLAIM}),
    ("mpi-ws", "mpi-ws", {}, {}),
    ("upc-distmem-hier", "upc-distmem-hier", {}, {
        "claim": NO_CLAIM,
        "barrier": "HierarchicalProbeOrder overrides ProbeOrder.one"}),
    ("ws-fencefree", "ws-fencefree", {}, _all("an after-move hook")),
    ("tree-split", "tree-split", {},
     {"work": "rounds call explore_batch: no Working state"}),
    ("own-loop", _OwnLoop, {},
     _all("_OwnLoop overrides AlgorithmBase.working_phase")),
    ("hooked", _Hooked, {}, _all("an after-move hook")),
    ("own-after-release", _OwnAfterRelease, {},
     _all("_OwnAfterRelease overrides LockBasedAlgorithm.after_release")),
    ("own-claim", _OwnClaim, {},
     {"claim": "_OwnClaim overrides LockBasedAlgorithm._claim"}),
    ("traced", "upc-term", {"traced": True},
     _all("traced (a trace sink or the invariant monitor)")),
    ("stall-plan", "upc-term", {"faults": "stall=0.05"},
     _all("fault classes beyond fail-stop and slowdown: stall")),
    ("tie-break", "upc-term", {"tie_break": lambda seq: seq},
     _all(PYTHON_LOOP)),
    ("mpi-ws-park", "mpi-ws", {"idle_strategy": "park"},
     {"idle": "park (the wait is a blocking recv)"}),
]


@pytest.mark.parametrize("variant, kw, declined",
                         [row[1:] for row in FUSION_MATRIX],
                         ids=[row[0] for row in FUSION_MATRIX])
def test_fusion_matrix(clean_env, monkeypatch, variant, kw, declined):
    if not fp.available():
        pytest.skip("extension not built on this host")
    from repro import TreeParams, run_experiment

    if not isinstance(variant, str):
        monkeypatch.setitem(ALGORITHMS, variant.name, variant)
        variant = variant.name
    kw = dict(kw)
    spy = AlgoSpy(enabled=kw.pop("traced", False))
    faults = kw.pop("faults", None)
    res = run_experiment(variant,
                         tree=TreeParams.binomial(b0=24, q=0.4, seed=1),
                         threads=4, tracer=spy, verify=True,
                         config=WsConfig(chunk_size=2,
                                         idle_strategy=kw.pop("idle_strategy",
                                                              "poll")),
                         faults=faults and parse_fault_spec(faults, seed=0),
                         **kw)
    assert res.total_nodes > 0
    assert res.fusion.declined == declined
    members = ({"work", "idle"} if variant == "mpi-ws" else {"work"}
               if variant == "tree-split" else set(SEARCHING_MEMBERS))
    assert set(res.fusion.bound) == members - set(declined)
    assert all(res.fusion.bound.values())  # each ran compiled somewhere


# -- where the Stealing state runs ---------------------------------------
#
# A stock lock-based protocol's steal attempts run inside the compiled
# ``SearchPhase``; anything the C claim does not reproduce keeps the
# bounce to ``try_steal``.  A claim that silently stopped binding would
# leave every schedule pin green and only cost time, so these pin where
# each attempt runs, counted by the ``search_bounces`` fixture.

from repro.harness.config import T1_QUICK  # noqa: E402


def fig4_cell(variant, chunk_size=2, threads=16, **kw):
    from repro import run_experiment

    spy = AlgoSpy(enabled=False)
    res = run_experiment(variant, tree=T1_QUICK, threads=threads,
                         chunk_size=chunk_size, tracer=spy, **kw)
    assert res.fusion.bound["search"] == threads
    return res, spy.algo


@pytest.mark.parametrize("variant",
                         ["upc-sharedmem", "upc-term", "upc-term-rapdif"])
def test_lock_based_claims_run_compiled(clean_env, search_bounces, variant):
    """Figure 4's shape (16 threads, kittyhawk, T1_QUICK): every steal
    attempt runs in C, the termination barrier's included."""
    if not fp.available():
        pytest.skip("extension not built on this host")
    res, _ = fig4_cell(variant)
    assert search_bounces == []
    assert sum(st.steals_ok for st in res.per_thread) > 100


class _OwnLanding(UpcTermRapdif):
    name = "own-landing"

    def _steal_landed(self, ctx, victim, nodes, n_chunks, dup=False):
        super()._steal_landed(ctx, victim, nodes, n_chunks, dup)


def _steal_one_copy(available_chunks):
    return 1


@pytest.mark.parametrize("case", ["own-claim", "own-landing",
                                  "unregistered-amount", "hostile-mix"])
def test_claims_not_stock_keep_the_bounce(clean_env, monkeypatch,
                                          search_bounces, case):
    """The C claim is declined -- and the attempt bounced to Python --
    for an overridden ``_claim`` or ``_steal_landed``, a steal amount
    it does not know (here a copy of ``steal_one``), and greedy or
    duplicating adversary ranks; the schedule is the pure one."""
    if not fp.available():
        pytest.skip("extension not built on this host")
    from repro.harness.runner import run_experiment
    from repro.scenarios.registry import get_scenario
    from repro.uts.params import TreeParams
    from repro.ws.registry import STEAL_AMOUNTS

    variant, kw = "upc-term-rapdif", dict(chunk_size=2)
    if case in ("own-claim", "own-landing"):
        cls = {"own-claim": _OwnClaim, "own-landing": _OwnLanding}[case]
        monkeypatch.setitem(ALGORITHMS, cls.name, cls)
        variant = cls.name
    elif case == "unregistered-amount":
        monkeypatch.setitem(STEAL_AMOUNTS, "one", _steal_one_copy)
        kw = dict(config=WsConfig(chunk_size=2, steal_policy="one"))
    else:
        scenario = get_scenario(case)
        kw = dict(preset=scenario.preset,
                  config=scenario.apply(WsConfig(chunk_size=2), 8))
    tree = TreeParams.binomial(b0=64, q=0.48, seed=1)
    runs = {backend: run_experiment(variant, tree, 8, fastpath=backend, **kw)
            for backend in ("pure", "fast")}
    assert search_bounces
    assert [(r.engine_events, repr(r.sim_time), r.total_nodes)
            for r in runs.values()] == [
        (runs["pure"].engine_events, repr(runs["pure"].sim_time),
         runs["pure"].total_nodes)] * 2


def test_rapdif_fig4_cell_bounces_no_steal(clean_env, search_bounces):
    if not fp.available():
        pytest.skip("extension not built on this host")
    res, algo = fig4_cell("upc-term-rapdif", chunk_size=2)
    assert search_bounces == [] and algo.in_flight_nodes == 0
    assert res.engine_events > 0


#: upc-distmem's bounced steal attempts on its Figure 4 cell at k=2:
#: every one of the run's 782, the search's 781 (the same count before
#: and after the lock-based claim moved into C; upc-term-rapdif's cell
#: bounced 701 attempts before, 0 since) and the one its streamlined
#: barrier made, which runs in the same compiled phase.
DISTMEM_BOUNCES = 782


def test_distmem_keeps_its_bounces(clean_env, search_bounces):
    """upc-distmem's request/response claim stays in Python: every
    attempt of its compiled search and barrier bounces."""
    if not fp.available():
        pytest.skip("extension not built on this host")
    res, _ = fig4_cell("upc-distmem", chunk_size=2)
    assert len(search_bounces) == DISTMEM_BOUNCES
    assert sum(st.steal_attempts for st in res.per_thread) == DISTMEM_BOUNCES
