"""The monitor that pays for what changed reaches the parent's verdicts.

ISSUE 23 made :class:`~repro.check.invariants.InvariantMonitor` cost
what changed since the last emit: ``dup_extra`` is re-summed after a
write (a dict that remembers being written), the ownership scans settle
"no descriptor twice" by a set-size proof before any loop runs, and the
I1/I2 ledger pass re-reads only the stacks a write barrier or a length
vector flagged.  Every failure string and every comparison is the
parent commit's, so the parent's ``attach_algorithm``, ``emit``,
``_check_ledgers``, ``_scan_ownership``, ``_scan_multiplicity`` and
``final_check`` live on below *verbatim* as :class:`ReferenceMonitor`,
and :class:`Pair` feeds both monitors every emit of a run and holds
them to one verdict: both silent, or both raising the same message at
the same emit number.

The matrix is the fuzzer's own cell space (``check_run`` /
``check_service_run`` with the pair swapped in): eight variants x
{clean, stall, drop, stale, kill storm} x {poll, park} where the
variant's fault catalogue and the idle strategy admit the plan, the
three fuzz scenarios, and the service cells.  A planted-corruption
catalogue then shows the verdicts agree when there *is* something to
object to -- on the emitting rank and on a bystander, just before and
just after a full pass.  The one corruption the length vector cannot
see at once (a shared chunk resized or swapped in place, chunk count
and counters untouched) is raised by the next full pass, at most
``scan_period`` emits later, with the reference's message at that emit.
"""

import dataclasses
import gc

import pytest

import repro.check.runner as check_runner
import repro.fastpath as fp
from repro import ALGORITHMS, TreeParams, WsConfig, run_experiment
from repro.check import VARIANTS, check_run, check_service_run
from repro.check.invariants import (_DEATH_KINDS, _SCAN_KINDS, _TERM_KINDS,
                                    InvariantMonitor)
from repro.errors import InvariantViolation
from repro.faults.plan import parse_fault_spec
from repro.scenarios import get_scenario
from repro.ws.algorithms import get_algorithm
from repro.ws.stack import SplitStack


# -- the parent commit's monitor, verbatim ------------------------------------

class ReferenceMonitor(InvariantMonitor):
    """``InvariantMonitor`` as of the parent commit: no barrier, every
    stack walked and ``dup_extra`` summed at every emit, the ownership
    loops at every scan.  ``_check_termination``, ``_fail`` and the
    lock pairing inside ``emit`` are the ones the new monitor runs."""

    def attach_algorithm(self, algo) -> None:
        self.algo = algo
        self.machine = algo.machine
        self._relaxed = bool(getattr(algo, "multiplicity_relaxed", False))

    def emit(self, time: float, thread: int, kind: str,
             fields: tuple = ()) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        algo = self.algo
        if algo is None:
            return
        self._emits += 1
        if kind == "lock.acq":
            holder = self._holders.get(fields[0])
            if holder is not None:
                self._fail(time, kind,
                           f"T{thread} acquired lock {fields[0]!r} already "
                           f"held by T{holder}")
            self._holders[fields[0]] = thread
        elif kind == "lock.rel":
            holder = self._holders.pop(fields[0], None)
            if holder != thread:
                self._fail(time, kind,
                           f"T{thread} released lock {fields[0]!r} held by "
                           f"{'nobody' if holder is None else f'T{holder}'}")
        elif kind in _DEATH_KINDS:
            # Fail-stop: the runtime frees the corpse's locks with no
            # lock.rel emit; forgive them here so the successor's
            # lock.acq is not misread as a double acquire.
            self._holders = {name: r for name, r in self._holders.items()
                             if r != thread}
        self._check_ledgers(time, kind)
        if kind in _TERM_KINDS:
            self.terminations_seen += 1
            self._check_termination(time, thread, kind)
            self._scan_ownership(time, kind)
        elif kind in _SCAN_KINDS or self._emits % self.scan_period == 0:
            self._scan_ownership(time, kind)

    def _check_ledgers(self, time: float, kind: str) -> None:
        """I1 + I2 + in_flight sanity, at every emit."""
        algo = self.algo
        faults = self.machine.faults
        dead = faults.dead if faults is not None else ()
        lost_stack = faults._lost_stack_nodes if faults is not None else 0
        total = pushes = pops = stolen = 0
        for rank, stack in enumerate(algo.stacks):
            # each counter is loaded once: this loop is the monitor's
            # whole cost on a small machine (docs/performance.md)
            shared = stack.shared
            shared_nodes = sum(map(len, shared)) if shared else 0
            n_local = len(stack.local)
            s_pushes = stack.pushes
            s_pops = stack.pops
            s_stolen = stack.stolen_from_me_nodes
            total += n_local + shared_nodes
            pushes += s_pushes
            pops += s_pops
            stolen += s_stolen
            if rank in dead:
                # A fail-stopped stack was cleared by the loss
                # accountant; its counters are frozen mid-ledger.
                continue
            released = stack.released_nodes
            reacquired = stack.reacquired_nodes
            if shared_nodes != released - reacquired - s_stolen:
                self._fail(
                    time, kind,
                    f"T{rank} shared-region ledger: holds {shared_nodes} "
                    f"node(s), expected released({released}) "
                    f"- reacquired({reacquired}) "
                    f"- stolen({s_stolen})")
            expect_local = s_pushes - s_pops - released + reacquired
            if n_local != expect_local:
                self._fail(
                    time, kind,
                    f"T{rank} local-region ledger: holds "
                    f"{n_local} node(s), expected {expect_local} "
                    f"(pushes={s_pushes} pops={s_pops} "
                    f"released={released} "
                    f"reacquired={reacquired})")
        expected = pushes - pops - stolen - lost_stack
        if total != expected:
            self._fail(
                time, kind,
                f"global conservation: stacks hold {total} node(s) but "
                f"ledger expects {expected} (pushes={pushes} pops={pops} "
                f"stolen={stolen} lost_from_stacks={lost_stack})")
        if algo.in_flight_nodes < 0:
            self._fail(time, kind,
                       f"in_flight_nodes negative ({algo.in_flight_nodes})")
        if self._relaxed:
            # I1': the duplication ledger must be internally exact --
            # every granted extra-copy allowance traces to duplicated
            # subtree work, and chunk-level counts bound subtree work.
            if not getattr(algo, "_dup_unhashable", False):
                extra_sum = sum(algo.dup_extra.values())
                if extra_sum != algo.dup_work:
                    self._fail(
                        time, kind,
                        f"I1' duplication ledger: per-node extras sum to "
                        f"{extra_sum} but dup_work={algo.dup_work}")
            if algo.dup_nodes > algo.dup_work:
                self._fail(
                    time, kind,
                    f"I1' duplication ledger: dup_nodes={algo.dup_nodes} "
                    f"exceeds dup_work={algo.dup_work}")
        if faults is not None:
            on_stack = faults.counters.lost_nodes_on_stack
            in_flight = faults.counters.lost_nodes_in_flight
            if faults.counters.lost_nodes != on_stack + in_flight:
                self._fail(
                    time, kind,
                    f"loss attribution: {faults.counters.lost_nodes} lost "
                    f"node(s) but on_stack={on_stack} "
                    f"+ in_flight={in_flight}")
        svc = getattr(algo, "service", None)
        if svc is not None:
            # I1, extended over the open system: every admitted task is
            # in exactly one state at every observable instant.
            shed_total = svc.shed_total
            accounted = (svc.completed + svc.lost_tasks + shed_total
                         + svc.in_system)
            if svc.admitted != accounted:
                self._fail(
                    time, kind,
                    f"task conservation: admitted {svc.admitted} != "
                    f"completed({svc.completed}) + lost({svc.lost_tasks}) "
                    f"+ shed({shed_total}) + queued({len(svc.queue)}) "
                    f"+ retrying({svc.retry_pending}) "
                    f"+ running({svc.running}) "
                    f"+ blocked({svc.door_blocked})")
        self.checks += 1

    def _scan_ownership(self, time: float, kind: str) -> None:
        """I3: every node descriptor lives in exactly one place.

        Multiplicity-relaxed algorithms get the bounded form I3'
        instead (:meth:`_scan_multiplicity`)."""
        if not self._scannable:
            return
        if self._relaxed:
            self._scan_multiplicity(time, kind)
            return
        algo = self.algo
        owner: dict = {}
        try:
            for rank, stack in enumerate(algo.stacks):
                for node in stack.local:
                    prev = owner.get(node)
                    if prev is not None:
                        self._fail(time, kind,
                                   f"node {node!r} owned twice: {prev} "
                                   f"and T{rank}.local")
                    owner[node] = f"T{rank}.local"
                for chunk in stack.shared:
                    for node in chunk:
                        prev = owner.get(node)
                        if prev is not None:
                            self._fail(time, kind,
                                       f"node {node!r} owned twice: {prev} "
                                       f"and T{rank}.shared")
                        owner[node] = f"T{rank}.shared"
        except TypeError:
            # Custom search space with unhashable nodes: ownership
            # scanning is not applicable; ledgers still run.
            self._scannable = False
            return
        faults = self.machine.faults
        if faults is not None:
            for rank, nodes in faults._open_transfer.items():
                for node in nodes:
                    prev = owner.get(node)
                    if prev is not None:
                        self._fail(time, kind,
                                   f"node {node!r} owned twice: {prev} and "
                                   f"T{rank}.open_transfer")
                    owner[node] = f"T{rank}.open_transfer"
            for thief, nodes in faults._responses.items():
                for node in nodes:
                    prev = owner.get(node)
                    if prev is not None:
                        self._fail(time, kind,
                                   f"node {node!r} owned twice: {prev} and "
                                   f"T{thief}.response")
                    owner[node] = f"T{thief}.response"
        self.checks += 1

    def _scan_multiplicity(self, time: float, kind: str) -> None:
        """I3': a node may appear at most ``1 + dup_extra[node]`` times.

        The +1 is the node's original; every extra appearance must be
        covered by an allowance the algorithm ledgered at the exact
        duplicate-extraction instant (``steal.dup``).  The allowance
        only ever grows, so the bound is sound at every scan even after
        copies (or originals) have been visited and consumed.
        """
        algo = self.algo
        if getattr(algo, "_dup_unhashable", False):
            # Per-node accounting was abandoned (unhashable custom
            # descriptors); the scan is meaningless too.
            self._scannable = False
            return
        counts: dict = {}
        try:
            for stack in algo.stacks:
                for node in stack.local:
                    counts[node] = counts.get(node, 0) + 1
                for chunk in stack.shared:
                    for node in chunk:
                        counts[node] = counts.get(node, 0) + 1
        except TypeError:
            self._scannable = False
            return
        faults = self.machine.faults
        if faults is not None:
            for nodes in faults._open_transfer.values():
                for node in nodes:
                    counts[node] = counts.get(node, 0) + 1
            for nodes in faults._responses.values():
                for node in nodes:
                    counts[node] = counts.get(node, 0) + 1
        extra = algo.dup_extra
        for node, cnt in counts.items():
            if cnt > 1:
                allowed = 1 + extra.get(node, 0)
                if cnt > allowed:
                    self._fail(
                        time, kind,
                        f"I3' multiplicity: node {node!r} appears {cnt} "
                        f"time(s) but only {allowed} allowed "
                        f"(1 original + {allowed - 1} ledgered cop"
                        f"{'y' if allowed == 2 else 'ies'})")
        self.checks += 1

    def final_check(self) -> None:
        """Post-run assertions for a run that completed without error."""
        if self.algo is None:
            raise InvariantViolation("monitor was never attached to a run")
        now = self.machine.sim.now
        if self.terminations_seen == 0:
            self._fail(now, "final",
                       "run completed but no termination was ever declared "
                       f"(kinds seen: {sorted(self.counts)})")
        if self._holders:
            self._fail(now, "final", f"locks still held: {self._holders}")
        self._check_ledgers(now, "final")
        self._check_termination(now, -1, "final")
        self._scan_ownership(now, "final")

# -- two monitors, one verdict ------------------------------------------------

def _verdict(call, *args):
    try:
        call(*args)
    except InvariantViolation as exc:
        return str(exc)
    return None


class Pair:
    """Tracer-shaped: the reference and the new monitor side by side.

    ``tamper(algo, thread)`` corrupts the run once, at the first emit
    past ``at_emit`` where it applies (returns True), before either
    monitor looks.  ``lag`` admits the one deferred case: the reference
    objects, the new monitor is silent, and the run goes on until the
    new monitor objects -- with the message the reference has at *that*
    emit -- no more than ``scan_period`` emits later.
    """

    enabled = True

    def __init__(self, at_emit=0, tamper=None, lag=False):
        self.ref = ReferenceMonitor()
        self.new = InvariantMonitor()
        self._at_emit = at_emit
        self._tamper = tamper
        self._lag = lag
        self.applied_at = None
        self.ref_first = None
        self.fast_scans_before = None

    machine = property(lambda self: self.new.machine)
    counts = property(lambda self: self.new.counts)

    def attach_algorithm(self, algo):
        self.ref.attach_algorithm(algo)
        self.new.attach_algorithm(algo)

    def _both(self, name, *args):
        want = _verdict(getattr(self.ref, name), *args)
        got = _verdict(getattr(self.new, name), *args)
        if self._lag and want is not None and got is None:
            if self.ref_first is None:
                self.ref_first = self.ref._emits
            assert name == "emit", "the lag outlived the run"
            assert self.ref._emits - self.ref_first < self.new.scan_period
            return
        assert got == want, f"reference: {want}\nmonitor:   {got}"
        if want is not None:
            raise InvariantViolation(want)

    def emit(self, time, thread, kind, fields=()):
        if (self._tamper is not None and self.applied_at is None
                and self.new._emits >= self._at_emit
                and self._tamper(self.new.algo, thread)):
            self.applied_at = self.new._emits + 1
            self.fast_scans_before = self.new.fast_scans
        self._both("emit", time, thread, kind, fields)

    def final_check(self):
        self._both("final_check")

    def summary(self):
        return self.new.summary()


@pytest.fixture
def paired(monkeypatch):
    """``check_run`` / ``check_service_run`` with a :class:`Pair` where
    they build their monitor; the pairs built, newest last."""
    built = []

    def factory(**kw):
        def make():
            built.append(Pair(**kw))
            return built[-1]
        monkeypatch.setattr(check_runner, "InvariantMonitor", make)
        return built
    return factory


# -- the matrix: every emit of the fuzzer's cell space --------------------------

PLANS = {
    "clean": None,
    "stall": "stall=0.05",
    "drop": "drop=0.05",
    "stale": "stale=0.3,stale-window=40us",
    "storm": "storm(kill:2@t=0.05ms..0.2ms)",
}
#: Park mode admits fail-stop plans only.
PARK_PLANS = ("clean", "storm")
SCENARIOS = ("numa-8x-uniform", "numa-8x-locality", "hostile-mix")
SCENARIO_VARIANTS = ("upc-distmem", "upc-term", "ws-fencefree", "tree-split")


def _admits(variant, spec):
    allowed = get_algorithm(variant).fault_classes
    return (spec is None or allowed is None
            or set(parse_fault_spec(spec, seed=0).fault_classes)
            <= set(allowed))


def _scenario_supported(variant, scenario):
    sc, cls = get_scenario(scenario), get_algorithm(variant)
    return all(wanted is None or offered is None or wanted in offered
               for wanted, offered in (
                   (sc.victim_policy, cls.victim_policies),
                   (sc.steal_policy, cls.steal_policies),
                   (sc.termination_policy, cls.termination_policies)))


BATCH_CELLS = [
    (variant, plan, idle, sched)
    for variant in VARIANTS for idle in ("poll", "park")
    for plan in PLANS
    if _admits(variant, PLANS[plan]) and (idle == "poll"
                                          or plan in PARK_PLANS)
    for sched in (None, 1)]
SCENARIO_CELLS = [
    (variant, scenario, idle)
    for scenario in SCENARIOS for variant in SCENARIO_VARIANTS
    if _scenario_supported(variant, scenario)
    for idle in ("poll", "park")]
SERVICE_CELLS = [(idle, storm, sched) for idle in ("park", "poll")
                 for storm in (False, True) for sched in (None, 0)]


def _settled(pair, out):
    """The cell ran to its end under both monitors and every emit was
    put to both."""
    assert out.ok, out.label()
    assert pair.ref._emits == pair.new._emits > 0
    assert pair.ref.checks >= pair.ref._emits
    assert pair.new.checks == pair.ref.checks
    assert pair.new.full_passes > 0


@pytest.mark.parametrize(
    "variant, plan, idle, sched", BATCH_CELLS,
    ids=[f"{v}-{p}-{i}-{'canonical' if s is None else f'sched{s}'}"
         for v, p, i, s in BATCH_CELLS])
def test_batch_cells_reach_the_reference_verdict_at_every_emit(
        variant, plan, idle, sched, paired):
    built = paired()
    extra = {}
    if PLANS[plan]:
        extra.update(fault_spec=PLANS[plan], fault_seed=3)
    out = check_run(variant, idle_strategy=idle, schedule_seed=sched,
                    **extra)
    _settled(built[-1], out)


@pytest.mark.parametrize("variant, scenario, idle", SCENARIO_CELLS,
                         ids=["-".join(c) for c in SCENARIO_CELLS])
def test_scenario_cells_reach_the_reference_verdict_at_every_emit(
        variant, scenario, idle, paired):
    built = paired()
    out = check_run(variant, scenario=scenario, idle_strategy=idle,
                    schedule_seed=0)
    _settled(built[-1], out)


@pytest.mark.parametrize(
    "idle, storm, sched", SERVICE_CELLS,
    ids=[f"{i}-{'storm' if s else 'clean'}-"
         f"{'canonical' if k is None else f'sched{k}'}"
         for i, s, k in SERVICE_CELLS])
def test_service_cells_reach_the_reference_verdict_at_every_emit(
        idle, storm, sched, paired):
    built = paired()
    extra = {}
    if storm:
        extra.update(fault_spec=PLANS["storm"], fault_seed=7)
    out = check_service_run(idle_strategy=idle, schedule_seed=sched,
                            **extra)
    _settled(built[-1], out)


# -- the matrix is not vacuous --------------------------------------------------

def test_the_ledger_pass_rereads_a_fraction_of_the_stacks(paired):
    """On the fuzz base cell most emits change no stack or exactly one:
    the pass re-reads well under one stack an emit, not none and not
    all eight."""
    built = paired()
    out = check_run("upc-distmem")
    _settled(built[-1], out)
    stats = out.monitor
    assert 0.2 < stats["ledger_rechecks"] / stats["emits"] < 0.8
    # the full pass is the scan-period cadence plus the termination
    assert stats["full_passes"] <= stats["emits"] // 64 + 3
    # strict ownership: every scan was settled by the set-size proof
    assert stats["fast_scans"] > stats["full_passes"]
    assert stats["dup_resums"] == 0


def test_dup_extra_is_resummed_after_writes_not_at_every_emit(paired):
    built = paired()
    out = check_run("ws-fencefree", fault_spec=PLANS["stale"], fault_seed=0)
    _settled(built[-1], out)
    assert out.dup_work > 0
    stats, dups = out.monitor, built[-1].counts["steal.dup"]
    assert dups > 0
    assert stats["dup_resums"] >= dups
    assert stats["dup_resums"] <= dups + stats["full_passes"] + 1
    assert stats["dup_resums"] * 10 < stats["emits"]
    # once a duplicate is ledgered the set-size proof is not attempted
    # (copies sit in the stacks): the allowance loops took those scans
    assert stats["fast_scans"] < _scans(stats)


def _scans(stats):
    """Ownership scans of a finished cell: every check that is neither
    a ledger pass nor a termination check (one of each per emit that
    had one, plus ``final_check``'s own)."""
    return (stats["checks"] - (stats["emits"] + 1)
            - (stats["terminations_seen"] + 1))


def test_a_relaxed_run_without_duplicates_takes_the_set_size_proof(paired):
    built = paired()
    out = check_run("ws-fencefree")
    _settled(built[-1], out)
    assert out.dup_work == 0
    assert out.monitor["fast_scans"] == _scans(out.monitor) > 0


# -- planted corruption: the verdicts agree when there is one -------------------

COUNTERS = ("pushes", "pops", "released_nodes", "reacquired_nodes",
            "stolen_from_me_nodes")


def _rank(algo, thread, who):
    n = len(algo.stacks)
    base = thread if 0 <= thread < n else 0
    return base if who == "emitter" else (base + 3) % n


def bump(name, k):
    def tamper(stack, algo):
        setattr(stack, name, getattr(stack, name) + k)
        return True
    return tamper


def local_pop(stack, algo):
    return bool(stack.local) and (stack.local.pop(), True)[1]


def local_append(stack, algo):
    stack.local.append(0)
    return True


def chunk_removed(stack, algo):
    return bool(stack.shared) and (stack.shared.pop(), True)[1]


def chunk_added(stack, algo):
    stack.shared.append([0, 0])
    return True


def chunk_resized_in_place(stack, algo):
    if not stack.shared:
        return False
    stack.shared[0].append(0)
    return True


def chunk_swapped_in_place(stack, algo):
    if not stack.shared:
        return False
    stack.shared[0] = stack.shared[0][:-1]
    return True


STACK_TAMPERS = {
    **{f"{name}{k:+d}": bump(name, k) for name in COUNTERS for k in (3, -2)},
    "local-pop": local_pop,
    "local-append": local_append,
    "chunk-removed": chunk_removed,
    "chunk-added": chunk_added,
}
LAGGING_TAMPERS = {
    "chunk-resized-in-place": chunk_resized_in_place,
    "chunk-swapped-in-place": chunk_swapped_in_place,
}
#: Emit #63 is the last before the full pass of emit #64, #65 the
#: first after it (``Pair`` applies at the emit after ``at_emit``).
AROUND_A_FULL_PASS = (62, 64)


def _plant(paired, tamper, who, at_emit, lag=False, **cell):
    def on_rank(algo, thread):
        return tamper(algo.stacks[_rank(algo, thread, who)], algo)
    built = paired(at_emit=at_emit, tamper=on_rank, lag=lag)
    out = check_run(cell.pop("variant", "upc-distmem"), **cell)
    pair = built[-1]
    assert pair.applied_at is not None, "the corruption never applied"
    assert not out.ok and out.error_type == "InvariantViolation"
    return pair, out


@pytest.mark.parametrize("at_emit", AROUND_A_FULL_PASS)
@pytest.mark.parametrize("who", ["emitter", "bystander"])
@pytest.mark.parametrize("name", STACK_TAMPERS)
def test_stack_corruption_is_raised_at_the_reference_emit(
        name, who, at_emit, paired):
    pair, out = _plant(paired, STACK_TAMPERS[name], who, at_emit)
    # the same emit the corruption landed on, by the reference's words
    assert pair.ref_first is None
    assert f"emit #{pair.applied_at}]" in out.error
    assert "ledger" in out.error or "conservation" in out.error


@pytest.mark.parametrize("at_emit", AROUND_A_FULL_PASS)
@pytest.mark.parametrize("who", ["emitter", "bystander"])
@pytest.mark.parametrize("name", LAGGING_TAMPERS)
def test_in_place_chunk_corruption_waits_for_the_next_full_pass_at_most(
        name, who, at_emit, paired):
    pair, out = _plant(paired, LAGGING_TAMPERS[name], who, at_emit, lag=True)
    assert "shared-region ledger" in out.error
    raised_at = pair.new._emits
    assert f"emit #{raised_at}]" in out.error
    assert raised_at - pair.applied_at < pair.new.scan_period
    if pair.ref_first is not None:
        # it did lag: until the stack was next re-read or the next full
        # pass, whichever came first -- no full pass went by in silence
        assert raised_at > pair.applied_at
        assert not any(emit % pair.new.scan_period == 0
                       for emit in range(pair.applied_at, raised_at))


def test_some_in_place_corruption_really_lags(paired):
    """Otherwise the lag branch of :class:`Pair` is dead code."""
    lagged = 0
    for at_emit in range(40, 120, 7):
        pair, _ = _plant(paired, chunk_resized_in_place, "bystander",
                         at_emit, lag=True)
        lagged += pair.ref_first is not None
    assert lagged > 0


def _stale_cell():
    return dict(variant="ws-fencefree", fault_spec=PLANS["stale"],
                fault_seed=0)


def dup_extra_bumped(stack, algo):
    if not algo.dup_extra:
        return False
    node = next(iter(algo.dup_extra))
    algo.dup_extra[node] += 1
    return True


def dup_extra_dropped(stack, algo):
    return bool(algo.dup_extra) and (algo.dup_extra.popitem(), True)[1]


def dup_work_bumped(stack, algo):
    algo.dup_work += 1
    return True


def dup_nodes_bumped(stack, algo):
    algo.dup_nodes = algo.dup_work + 1
    return True


@pytest.mark.parametrize("at_emit", (126, 128))
@pytest.mark.parametrize("tamper", [dup_extra_bumped, dup_extra_dropped,
                                    dup_work_bumped, dup_nodes_bumped],
                         ids=lambda f: f.__name__)
def test_duplication_ledger_corruption_is_raised_at_the_reference_emit(
        tamper, at_emit, paired):
    pair, out = _plant(paired, tamper, "emitter", at_emit, **_stale_cell())
    assert f"emit #{pair.applied_at}]" in out.error
    assert "I1' duplication ledger" in out.error


def lost_stack_nodes_bumped(stack, algo):
    algo.machine.faults._lost_stack_nodes += 1
    return True


def loss_counter_bumped(stack, algo):
    algo.machine.faults.counters.lost_nodes += 1
    return True


@pytest.mark.parametrize("at_emit", AROUND_A_FULL_PASS)
@pytest.mark.parametrize(
    "tamper, match", [(lost_stack_nodes_bumped, "global conservation"),
                      (loss_counter_bumped, "loss attribution")],
    ids=["lost-stack-nodes", "loss-counter"])
def test_fault_ledger_corruption_is_raised_at_the_reference_emit(
        tamper, match, at_emit, paired):
    pair, out = _plant(paired, tamper, "emitter", at_emit,
                       fault_spec=PLANS["stall"])
    assert f"emit #{pair.applied_at}]" in out.error and match in out.error


SERVICE_COUNTERS = ("admitted", "completed", "lost_tasks", "running",
                    "retry_pending", "door_blocked")


@pytest.mark.parametrize("at_emit", AROUND_A_FULL_PASS)
@pytest.mark.parametrize("name", SERVICE_COUNTERS + ("shed",))
def test_service_counter_corruption_is_raised_at_the_reference_emit(
        name, at_emit, paired):
    def tamper(algo, thread):
        svc = algo.service
        if name == "shed":
            svc.shed["deadline"] += 1
        else:
            setattr(svc, name, getattr(svc, name) + 1)
        return True
    built = paired(at_emit=at_emit, tamper=tamper)
    out = check_service_run()
    assert not out.ok and "task conservation" in out.error
    assert f"emit #{built[-1].applied_at}]" in out.error


@pytest.mark.parametrize("who", ["emitter", "bystander"])
def test_duplicated_descriptor_refuses_the_fast_ownership_path(who, paired):
    def duplicate(stack, algo):
        donor = next((s for s in algo.stacks
                      if s is not stack and s.local), None)
        if donor is None:
            return False
        stack.local.append(donor.local[-1])
        # every ledger stays consistent (the copy is "pushed"): only
        # the ownership scan can object
        stack.pushes += 1
        return True
    pair, out = _plant(paired, duplicate, who, 40)
    assert "owned twice" in out.error
    # raised by the naming loops at the first scan past the corruption;
    # until then the set-size proof had settled every scan
    assert pair.fast_scans_before > 0
    assert pair.new.fast_scans == pair.fast_scans_before
    assert pair.new._emits - pair.applied_at < pair.new.scan_period


# -- the barrier: invisible to the schedule, gone after the run -----------------

TREE = TreeParams.binomial(b0=64, m=2, q=0.48, seed=1)
BACKENDS = ["pure", pytest.param("fast", marks=pytest.mark.skipif(
    not fp.available(), reason="compiled core not built on this host"))]


def _schedule(result):
    return (result.engine_events, repr(result.sim_time), result.total_nodes,
            [dataclasses.asdict(st) | {"timer": None}
             for st in result.per_thread],
            [(st.timer.times, st.timer.transitions)
             for st in result.per_thread])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("idle", ["poll", "park"])
@pytest.mark.parametrize("variant", sorted(ALGORITHMS))
def test_monitored_run_executes_the_unmonitored_schedule(
        variant, idle, backend, monkeypatch):
    if backend == "fast":
        monkeypatch.delenv("REPRO_FASTPATH", raising=False)
    kw = dict(tree=TREE, threads=8, fastpath=backend,
              config=WsConfig(chunk_size=4, idle_strategy=idle))
    plain = run_experiment(variant, **kw)
    monitor = InvariantMonitor()
    watched = run_experiment(variant, tracer=monitor, **kw)
    # before final_check: the barrier is still on every stack
    assert all(type(s) is not SplitStack for s in monitor.algo.stacks)
    monitor.final_check()
    assert _schedule(watched) == _schedule(plain)
    assert monitor.ledger_rechecks > 0


def test_a_stack_outliving_its_monitor_is_a_plain_stack_again():
    monitor = InvariantMonitor()
    run_experiment("ws-fencefree", tree=TREE, threads=4, tracer=monitor)
    stacks = monitor.algo.stacks
    assert all(isinstance(s, SplitStack) and type(s) is not SplitStack
               for s in stacks)
    monitor.final_check()
    assert all(type(s) is SplitStack for s in stacks)
    before = monitor.ledger_rechecks
    stacks[0].push(0)
    stacks[0].pops += 1
    assert monitor._dirty == set() and monitor.ledger_rechecks == before


def test_barrier_classes_do_not_pile_up():
    """One barrier class per attach; none may outlive its monitor."""
    gc.collect()
    before = len(SplitStack.__subclasses__())
    for _ in range(30):
        monitor = InvariantMonitor()
        run_experiment("upc-distmem", tree=TreeParams.binomial(
            b0=4, m=2, q=0.3, seed=1), threads=2, tracer=monitor)
        monitor.final_check()
    del monitor
    gc.collect()
    assert len(SplitStack.__subclasses__()) == before
