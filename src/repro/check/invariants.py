"""Online invariant checking for work-stealing runs.

:class:`InvariantMonitor` poses as a tracer (``machine.tracer``): every
hook site that already emits trace records -- stack batches, steals,
services, lock transitions, barrier/termination announcements, fault
injections -- drives the checks *during* the run, at the exact emit
where a protocol transition completed.  Traced runs are pinned
bit-identical to untraced runs (tracers only append to a list), so
attaching the monitor never perturbs the schedule it is checking.

Checked invariants (see ``docs/correctness.md`` for the catalog):

I1  Node conservation (global), closed over steals-in-flight::

        sum(total_nodes) == sum(pushes) - sum(pops)
                            - sum(stolen_from_me) - lost_from_stacks

    On service runs (``algo.service`` present) the same idea extends
    to tasks: ``admitted == completed + lost + shed + in-system`` at
    every emit, where in-system covers queued, retrying, running, and
    blocked-at-the-door tasks.

I2  Per-stack shared-region ledger (live ranks)::

        shared_nodes == released - reacquired - stolen_from_me
        local_size   == pushes - pops - released + reacquired

I3  Single owner per node: no node descriptor appears twice across all
    local regions, shared chunks, and the fault layer's in-flight
    transfer journals.

I4  No termination while work remains: at every termination
    announcement, all live stacks are empty, nothing is in flight, and
    (mpi-ws) no WORK message is pending in any mailbox.

I5  Lock acquire/release pairing: a lock is released only by its
    current holder and never acquired while held (fail-stops forgive
    the corpse's holdings, mirroring ``GlobalLock.on_thread_death``).

Relaxed forms (algorithms with ``multiplicity_relaxed = True``, i.e.
fence-free stealing where a chunk may legitimately be extracted more
than once but never lost):

I1' Duplication ledger consistency: the per-node extra-copy allowances
    the algorithm granted sum to exactly its total duplicated work
    (``sum(dup_extra.values()) == dup_work``), and the duplicated
    chunk-node count never exceeds the duplicated subtree work
    (``dup_nodes <= dup_work``).  The strict I1 stack ledger still
    holds verbatim -- duplicate copies enter through regular pushes.

I3' Bounded multiplicity per node: a node descriptor may appear at
    most ``1 + dup_extra[node]`` times across all local regions,
    shared chunks, and in-flight transfer journals.  Unbounded or
    unaccounted duplication is still a violation; only the exact,
    ledgered copies the protocol's racy window produced are allowed.

A violation raises :class:`~repro.errors.InvariantViolation` from
inside the run, freezing the schedule at the first inconsistent state.

What is checked when (``docs/correctness.md`` has the table).  Every
emit evaluates every comparison of I1, I2, I1' and I5, but pays for
what changed: only stacks that were written to or changed length are
re-read (a write barrier that :meth:`InvariantMonitor.attach_algorithm`
puts on the stacks for the run, plus one length-vector compare), and
``dup_extra`` is re-summed only after a write.  Every ``scan_period``-th
emit, every termination emit and ``final_check`` run the full pass over
every stack, which also fails by name if the incremental view ever
disagrees with it.  I3/I3' scans settle "no descriptor twice" by a
set-size proof and hand over to the loops that name an offender only
when it fails.  Verdict, emit number and message are the
full pass's; the one exception -- a shared chunk resized or swapped in
place with no counter write and no change in chunk count -- is raised
by the next re-read of that stack or the next full pass, whichever is
first, never more than ``scan_period`` emits late.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import itemgetter, ne

from repro.errors import InvariantViolation
from repro.obs.events import _TERM_KINDS

__all__ = ["InvariantMonitor"]

#: Emits that mark a protocol transition worth a full ownership scan
#: (cheap emits like ``visit`` fall back to the periodic scan).
_SCAN_KINDS = frozenset({"steal", "service", "chunk.get"})
#: Emits after which a rank's lock holdings are forgiven (fail-stop).
_DEATH_KINDS = frozenset({"fault.kill", "sim.interrupt"})


class _WatchedDict(dict):
    """The algorithm's ``dup_extra`` while a monitor is attached: a
    plain dict that remembers it was written, so the monitor re-sums it
    after a write instead of at every emit.  The monitor never takes a
    total from the algorithm -- only the fact that one is stale."""

    __slots__ = ("written",)

    def __setitem__(self, key, value, _set=dict.__setitem__):
        # the store the algorithm makes, once per duplicated descriptor
        _set(self, key, value)
        self.written = True


def _flagging(name: str):
    method = getattr(dict, name)

    def mutator(self, *args, **kwargs):
        self.written = True
        return method(self, *args, **kwargs)
    mutator.__name__ = name
    return mutator


for _name in ("__delitem__", "__ior__", "clear", "pop", "popitem",
              "setdefault", "update"):
    setattr(_WatchedDict, _name, _flagging(_name))
del _name


def _watched(base: type, note) -> type:
    """``base`` behind a write barrier: every attribute store also calls
    ``note(stack)``.  No slot is added (``__slots__ = ()``), so a live
    stack's ``__class__`` can be swapped to it and back; the barrier
    exists only between ``attach_algorithm`` and the end of the run."""

    def __setattr__(self, name, value, _set=base.__setattr__):
        _set(self, name, value)
        note(self)

    return type(f"Watched{base.__name__}", (base,),
                {"__slots__": (), "__setattr__": __setattr__})


class InvariantMonitor:
    """Tracer-shaped online checker; bind with ``tracer=monitor``.

    The harness calls :meth:`attach_algorithm` right after the
    algorithm is constructed (see ``run_experiment``), giving the
    monitor white-box access to the stacks, counters, and fault
    ledgers the invariants are phrased over.
    """

    def __init__(self, scan_period: int = 64) -> None:
        #: Tracer protocol: hook sites test this before emitting.
        self.enabled = True
        self.scan_period = scan_period
        self.algo = None
        self.machine = None
        #: Lock name -> holder rank (I5).
        self._holders: dict[str, int] = {}
        #: Per-kind emit counts (observability + final_check evidence).
        self.counts: dict[str, int] = {}
        #: Number of invariant evaluations performed.
        self.checks = 0
        self.terminations_seen = 0
        self._emits = 0
        self._scannable = True  # cleared if node descriptors unhashable
        #: True once bound to a multiplicity-relaxed algorithm: the
        #: ownership scan checks the bounded form I3' and the ledger
        #: pass adds the I1' duplication checks.
        self._relaxed = False
        #: What each emit costs (``summary``): stacks re-read by the
        #: ledger pass, full passes over every stack, ``dup_extra``
        #: re-sums, ownership scans settled by the set-size proof.
        self.ledger_rechecks = 0
        self.full_passes = 0
        self.dup_resums = 0
        self.fast_scans = 0
        #: The ledger pass's view of the stacks as of the last emit:
        #: per rank ``(held, pushes, pops, stolen)``, their column sums,
        #: and the length of every local region and shared region
        #: (``_parts``, each owned by the stack at its ``_owners`` index).
        self._stacks: list = []
        self._rank_of: dict = {}
        self._parts: list = []
        self._owners: list = []
        self._lens: list = []
        self._seen: list = []
        self._sum = [0, 0, 0, 0]
        #: Stacks written since the last emit (the barrier's ``note``),
        #: the stacks' own class and the barrier class standing in for it.
        self._dirty: set = set()
        self._plain = self._barrier = None
        #: ``algo.dup_extra`` behind its barrier, and its last sum.
        self._dup = None
        self._dup_sum = 0

    # -- binding -----------------------------------------------------------

    def attach_algorithm(self, algo) -> None:
        """Bind to ``algo`` and install the write barriers -- the only
        place that does: each stack's class is swapped for a subclass
        whose attribute stores mark it dirty, and a relaxed algorithm's
        ``dup_extra`` for a dict that remembers being written."""
        self._detach()
        self.algo = algo
        self.machine = algo.machine
        self._relaxed = bool(getattr(algo, "multiplicity_relaxed", False))
        stacks = self._stacks = list(algo.stacks)
        self._rank_of = {stack: rank for rank, stack in enumerate(stacks)}
        self._parts = ([stack.local for stack in stacks]
                       + [stack.shared for stack in stacks])
        self._owners = stacks * 2
        self._lens = list(map(len, self._parts))
        self._seen = [(0, 0, 0, 0)] * len(stacks)
        self._sum = [0, 0, 0, 0]
        dirty = self._dirty = set(stacks)
        if stacks:
            # one algorithm, one stack class
            self._plain = type(stacks[0])
            self._barrier = _watched(self._plain, dirty.add)
            for stack in stacks:
                stack.__class__ = self._barrier
        if self._relaxed:
            self._dup = algo.dup_extra = _WatchedDict(algo.dup_extra)
            self._dup.written = True

    def _detach(self) -> None:
        """Take the stack barriers off: a stack that outlives its
        monitor is a plain stack again.  (``dup_extra`` stays the dict
        it is; a flag nobody reads is inert.)"""
        for stack in self._stacks:
            if type(stack) is self._barrier:
                stack.__class__ = self._plain
        self._stacks = []
        self._plain = self._barrier = None
        self._dirty.clear()  # the swap back was itself a watched store

    # -- tracer protocol ---------------------------------------------------

    def emit(self, time: float, thread: int, kind: str,
             fields: tuple = ()) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        algo = self.algo
        if algo is None:
            return
        self._emits += 1
        if kind == "lock.acq":
            name = fields[0]
            holder = self._holders.get(name)
            if holder is not None:
                self._fail(time, kind,
                           f"T{thread} acquired lock {name!r} already "
                           f"held by T{holder}")
            self._holders[name] = thread
        elif kind == "lock.rel":
            name = fields[0]
            holder = self._holders.pop(name, None)
            if holder != thread:
                self._fail(time, kind,
                           f"T{thread} released lock {name!r} held by "
                           f"{'nobody' if holder is None else f'T{holder}'}")
        elif kind in _DEATH_KINDS:
            # Fail-stop: the runtime frees the corpse's locks with no
            # lock.rel emit; forgive them here so the successor's
            # lock.acq is not misread as a double acquire.
            self._holders = {name: r for name, r in self._holders.items()
                             if r != thread}
        term = kind in _TERM_KINDS
        full = term or self._emits % self.scan_period == 0
        scan = full or kind in _SCAN_KINDS
        self._check_ledgers(time, kind, full)
        if term:
            self.terminations_seen += 1
            self._check_termination(time, thread, kind)
        if scan:
            self._scan_ownership(time, kind)

    # -- invariants --------------------------------------------------------

    def _fail(self, time: float, kind: str, msg: str) -> None:
        raise InvariantViolation(
            f"[t={time:.6f} at {kind!r} emit #{self._emits}] {msg}")

    def _check_ledgers(self, time: float, kind: str,
                       full: bool = True) -> None:
        """I1 + I2 + in_flight sanity, at every emit.

        The stack part costs what changed: :meth:`_reread_dirty` brings
        the per-stack view up to date and says whether every stack it
        re-read balances; the column sums then give I1 in O(1).  The
        full pass (:meth:`_check_stacks`) runs when either objects --
        it names the offender -- and whenever ``full`` is set: at every
        ``scan_period``-th emit, at every termination emit and in
        :meth:`final_check`, where it also holds the view to the stacks.
        """
        algo = self.algo
        faults = self.machine.faults
        sound = self._reread_dirty()
        held, pushes, pops, stolen = self._sum
        lost_stack = faults._lost_stack_nodes if faults is not None else 0
        if full or not sound or held != pushes - pops - stolen - lost_stack:
            self._check_stacks(time, kind)
        if algo.in_flight_nodes < 0:
            self._fail(time, kind,
                       f"in_flight_nodes negative ({algo.in_flight_nodes})")
        if self._relaxed:
            # I1': the duplication ledger must be internally exact --
            # every granted extra-copy allowance traces to duplicated
            # subtree work, and chunk-level counts bound subtree work.
            if not getattr(algo, "_dup_unhashable", False):
                extra = algo.dup_extra
                if full or extra is not self._dup or extra.written:
                    # the one place dup_extra is summed: after a write
                    # (or a rebind past the barrier), and at every
                    # full pass whatever the barrier says
                    if extra is self._dup:
                        extra.written = False
                    self._dup_sum = sum(extra.values())
                    self.dup_resums += 1
                extra_sum = self._dup_sum
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

    def _reread_dirty(self) -> bool:
        """Re-read the stacks that changed since the last emit into the
        per-stack view and its sums; False if one of them breaks I2.

        A stack is dirty if a counter was stored to (the barrier) or its
        local region or shared region changed length (one vector
        compare); a clean stack balanced when it was last read and has
        not changed since.  What neither sees -- a chunk resized in
        place with no counter write -- waits for the next full pass.
        """
        dirty = self._dirty
        cached = self._lens
        lens = list(map(len, self._parts))
        if not dirty and lens == cached:
            return True
        faults = self.machine.faults
        dead = faults.dead if faults is not None else ()
        rank_of = self._rank_of
        seen = self._seen
        tot = self._sum
        n = len(seen)
        sound = True
        while True:
            for stack in dirty:
                rank = rank_of[stack]
                shared = stack.shared
                shared_nodes = sum(map(len, shared)) if shared else 0
                cached[rank] = n_local = len(stack.local)
                cached[n + rank] = len(shared)
                s_pushes = stack.pushes
                s_pops = stack.pops
                s_stolen = stack.stolen_from_me_nodes
                held = n_local + shared_nodes
                was = seen[rank]
                seen[rank] = (held, s_pushes, s_pops, s_stolen)
                tot[0] += held - was[0]
                tot[1] += s_pushes - was[1]
                tot[2] += s_pops - was[2]
                tot[3] += s_stolen - was[3]
                if rank not in dead:
                    released = stack.released_nodes
                    reacquired = stack.reacquired_nodes
                    if (shared_nodes != released - reacquired - s_stolen
                            or n_local != (s_pushes - s_pops - released
                                           + reacquired)):
                        sound = False
            self.ledger_rechecks += len(dirty)
            dirty.clear()
            if lens == cached:
                return sound
            # a region changed length with no counter write beside it
            # (a fail-stop clearing the corpse's stack, or corruption)
            dirty.update(compress(self._owners, map(ne, lens, cached)))

    def _check_stacks(self, time: float, kind: str) -> None:
        """I1 + I2 over every stack, read afresh: the pass that names
        an offender, and the safety net under :meth:`_reread_dirty` --
        having passed, it fails by name if the view it was handed is
        not what the stacks say."""
        algo = self.algo
        faults = self.machine.faults
        dead = faults.dead if faults is not None else ()
        lost_stack = faults._lost_stack_nodes if faults is not None else 0
        total = pushes = pops = stolen = 0
        fresh = []
        for rank, stack in enumerate(algo.stacks):
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
            fresh.append((n_local + shared_nodes, s_pushes, s_pops, s_stolen))
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
        if fresh != self._seen or [total, pushes, pops, stolen] != self._sum:
            stale = [rank for rank, (new, old)
                     in enumerate(zip(fresh, self._seen)) if new != old]
            self._fail(
                time, kind,
                f"monitor ledger view out of step with the stacks at "
                f"rank(s) {stale}: (held, pushes, pops, stolen) cached "
                f"{[self._seen[r] for r in stale]}, read "
                f"{[fresh[r] for r in stale]}; sums cached {self._sum}, "
                f"read {[total, pushes, pops, stolen]}")
        self.full_passes += 1

    def _scan_ownership(self, time: float, kind: str) -> None:
        """I3: every node descriptor lives in exactly one place.

        Multiplicity-relaxed algorithms get the bounded form I3'
        instead (:meth:`_scan_multiplicity`)."""
        if not self._scannable:
            return
        if self._relaxed:
            self._scan_multiplicity(time, kind)
            return
        if self._all_distinct():
            return
        owner: dict = {}
        try:
            for place, nodes in self._placements():
                for node in nodes:
                    prev = owner.get(node)
                    if prev is not None:
                        self._fail(time, kind,
                                   f"node {node!r} owned twice: "
                                   f"T{prev[0]}.{prev[1]} and "
                                   f"T{place[0]}.{place[1]}")
                    owner[node] = place
        except TypeError:
            # Custom search space with unhashable nodes: ownership
            # scanning is not applicable; ledgers still run.
            self._scannable = False
            return
        self.checks += 1

    def _placements(self):
        """``(place, nodes)`` for every region a node descriptor can live
        in, ``place`` being ``(rank, region)``: each rank's local region
        and its shared chunks (one iterable), in rank order, then the
        fault layer's open transfers and granted responses."""
        for rank, stack in enumerate(self.algo.stacks):
            yield (rank, "local"), stack.local
            yield (rank, "shared"), chain.from_iterable(stack.shared)
        faults = self.machine.faults
        if faults is not None:
            for rank, nodes in faults._open_transfer.items():
                yield (rank, "open_transfer"), nodes
            for thief, nodes in faults._responses.items():
                yield (thief, "response"), nodes

    def _all_distinct(self) -> bool:
        """The ownership scans' fast path: as many distinct descriptors
        as descriptors -- over every region :meth:`_placements` walks --
        proves none appears twice, at set speed.  False (a repeat, or
        descriptors that do not hash) leaves the verdict to the loops,
        which name the offender."""
        nodes = list(chain.from_iterable(
            map(itemgetter(1), self._placements())))
        try:
            if len(set(nodes)) != len(nodes):
                return False
        except TypeError:
            return False
        self.fast_scans += 1
        self.checks += 1
        return True

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
        if not algo.dup_extra and self._all_distinct():
            # Worth trying only while no duplicate is ledgered: copies
            # sit in the stacks for most of a run that has some, and a
            # failed proof is a wasted pass.
            return
        counts: dict = {}
        try:
            for _, nodes in self._placements():
                for node in nodes:
                    counts[node] = counts.get(node, 0) + 1
        except TypeError:
            self._scannable = False
            return
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

    def _check_termination(self, time: float, thread: int, kind: str) -> None:
        """I4: the declaring instant must be globally work-free."""
        algo = self.algo
        faults = self.machine.faults
        dead = faults.dead if faults is not None else ()
        for rank, stack in enumerate(algo.stacks):
            if rank in dead:
                continue
            held = len(stack.local) + sum(map(len, stack.shared))
            if held:
                self._fail(time, kind,
                           f"T{thread} declared termination while T{rank} "
                           f"holds {held} unprocessed node(s)")
        if algo.in_flight_nodes:
            self._fail(time, kind,
                       f"T{thread} declared termination with "
                       f"{algo.in_flight_nodes} node(s) in flight")
        svc = getattr(algo, "service", None)
        if svc is not None and svc.in_system:
            self._fail(time, kind,
                       f"T{thread} declared termination with "
                       f"{svc.in_system} task(s) still in the system "
                       f"(queue={len(svc.queue)} "
                       f"retrying={svc.retry_pending} "
                       f"running={svc.running} "
                       f"blocked={svc.door_blocked})")
        world = getattr(algo, "world", None)
        if world is not None:
            for rank, pending in enumerate(world._pending):
                stray = [m for (_, _, m) in pending if m.tag == "WORK"]
                if stray:
                    self._fail(time, kind,
                               f"T{thread} declared termination with "
                               f"{len(stray)} WORK message(s) pending for "
                               f"T{rank}")
        self.checks += 1

    # -- end of run --------------------------------------------------------

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
        try:
            self._check_ledgers(now, "final")
            self._check_termination(now, -1, "final")
            self._scan_ownership(now, "final")
        finally:
            self._detach()

    def summary(self) -> dict:
        return {
            "checks": self.checks,
            "emits": self._emits,
            "terminations_seen": self.terminations_seen,
            "ownership_scans": self._scannable,
            "ledger_rechecks": self.ledger_rechecks,
            "full_passes": self.full_passes,
            "dup_resums": self.dup_resums,
            "fast_scans": self.fast_scans,
        }
