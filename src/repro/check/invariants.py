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
"""

from __future__ import annotations

from typing import Optional

from repro.errors import InvariantViolation

__all__ = ["InvariantMonitor"]

#: Emits that mark a protocol transition worth a full ownership scan
#: (cheap emits like ``visit`` fall back to the periodic scan).
_SCAN_KINDS = frozenset({"steal", "service", "chunk.get"})
#: Emits that declare (or relay) global termination.  ``service.close``
#: is the open-system analogue: the stream's exact drain declaration;
#: ``tsplit.term`` is tree-split's empty rebalance round.
_TERM_KINDS = frozenset({"sbarrier.announce", "cbarrier.terminate",
                         "mpi.term", "service.close", "tsplit.term"})
#: Emits after which a rank's lock holdings are forgiven (fail-stop).
_DEATH_KINDS = frozenset({"fault.kill", "sim.interrupt"})


class InvariantMonitor:
    """Tracer-shaped online checker; bind with ``tracer=monitor``.

    The harness calls :meth:`attach_algorithm` right after the
    algorithm is constructed (see ``run_experiment``), giving the
    monitor white-box access to the stacks, counters, and fault
    ledgers the invariants are phrased over.
    """

    def __init__(self, scan_period: int = 64) -> None:
        #: Tracer protocol: hook sites test this before formatting.
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

    # -- binding -----------------------------------------------------------

    def attach_algorithm(self, algo) -> None:
        self.algo = algo
        self.machine = algo.machine
        self._relaxed = bool(getattr(algo, "multiplicity_relaxed", False))

    # -- tracer protocol ---------------------------------------------------

    def emit(self, time: float, thread: int, kind: str, detail: str = "") -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        algo = self.algo
        if algo is None:
            return
        self._emits += 1
        if kind == "lock.acq":
            holder = self._holders.get(detail)
            if holder is not None:
                self._fail(time, kind,
                           f"T{thread} acquired lock {detail!r} already "
                           f"held by T{holder}")
            self._holders[detail] = thread
        elif kind == "lock.rel":
            holder = self._holders.pop(detail, None)
            if holder != thread:
                self._fail(time, kind,
                           f"T{thread} released lock {detail!r} held by "
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

    # -- invariants --------------------------------------------------------

    def _fail(self, time: float, kind: str, msg: str) -> None:
        raise InvariantViolation(
            f"[t={time:.6f} at {kind!r} emit #{self._emits}] {msg}")

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

    def _check_termination(self, time: float, thread: int, kind: str) -> None:
        """I4: the declaring instant must be globally work-free."""
        algo = self.algo
        faults = self.machine.faults
        dead = faults.dead if faults is not None else ()
        for rank, stack in enumerate(algo.stacks):
            if rank in dead:
                continue
            held = len(stack.local) + sum(len(c) for c in stack.shared)
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
        self._check_ledgers(now, "final")
        self._check_termination(now, -1, "final")
        self._scan_ownership(now, "final")

    def summary(self) -> dict:
        return {
            "checks": self.checks,
            "emits": self._emits,
            "terminations_seen": self.terminations_seen,
            "ownership_scans": self._scannable,
        }
