"""Fault-injection runtime: the live side of a :class:`FaultPlan`.

One :class:`FaultRuntime` per faulted run.  It is installed on the
machine (``machine.faults``) before the algorithm is constructed, so
every hook site -- message routing in :mod:`repro.msg.comm`, lock
release in :class:`~repro.pgas.machine.UpcContext`, staleable shared
variables, the kill watchdogs -- reaches it through one attribute test
that is ``None`` (and therefore free) on fault-free runs.

Responsibilities:

* roll injected faults from per-category SplitMix64 substreams
  (:func:`repro.faults.rng.substream`) so categories never perturb
  each other's draws;
* run the fail-stop machinery: kill watchdogs, heartbeat epochs, and
  the death bookkeeping that keeps the node-conservation ledger exact
  when a thread dies with work on its stack or in flight;
* run the in-simulation conservation checker, which asserts

      sum(stack.total_nodes)
          == sum(pushes) - sum(pops) - sum(stolen_from_me) - lost_from_stacks

  at every check period.  Every protocol transition (expand, steal,
  transfer, death accounting) preserves this ledger atomically between
  yields, so a violation is a genuine protocol bug, not a race with
  the checker.

This module must not import ``repro.ws`` at module level: it is
imported by ``repro.ws.config`` (via ``repro.faults.plan``), and a
module-level back-import would create a cycle.  The algorithm object is
injected with :meth:`attach` instead.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.errors import ConfigError, ProtocolError, ThreadKilled
from repro.faults.counters import FaultCounters
from repro.faults.plan import FaultPlan
from repro.faults.rng import substream
from repro.sim.engine import Timeout

__all__ = ["FaultRuntime"]

#: ``work_avail`` sentinel (== repro.ws.algorithms.base.NO_WORK; literal
#: here to avoid the import cycle described in the module docstring).
_NO_WORK = -1


class FaultRuntime:
    """Per-run fault injector, failure detector, and loss accountant."""

    def __init__(self, plan: FaultPlan, machine) -> None:
        n = machine.n_threads
        for rank in plan.kill_ranks + plan.slow_ranks:
            if rank >= n:
                raise ConfigError(
                    f"fault plan names rank {rank} but the machine has "
                    f"only {n} thread(s)")
        self.plan = plan
        self.machine = machine
        self.counters = FaultCounters()
        self.algo = None  # injected by attach()
        # Per-category random substreams: enabling one fault category
        # never shifts another category's draws.
        seed = plan.seed
        self._drop = substream(seed, "msg.drop")
        self._dup = substream(seed, "msg.dup")
        self._delay = substream(seed, "msg.delay")
        self._stall = substream(seed, "lock.stall")
        self._stale = substream(seed, "shared.stale")
        self._retry = substream(seed, "steal.retry")
        # Storm expansion.  Kill storms draw their victims and kill
        # times from a dedicated substream at construction, so the
        # schedule is part of the plan's deterministic identity; rate
        # storms are applied as windowed overrides at roll time.
        self._rate_storms = tuple(
            s for s in plan.storms if s.category != "kill")
        kill_ranks = list(plan.kill_ranks)
        kill_times = list(plan.kill_times)
        storm_rng = substream(seed, "storm.kill")
        for s in plan.storms:
            if s.category != "kill":
                continue
            pool = [r for r in range(1, n) if r not in kill_ranks]
            if s.count > len(pool):
                raise ConfigError(
                    f"{s.describe()} wants {s.count} victim(s) but only "
                    f"{len(pool)} killable rank(s) remain (rank 0 and "
                    "already-scheduled victims are excluded)")
            for _ in range(s.count):
                victim = pool.pop(storm_rng.next_u64() % len(pool))
                kill_ranks.append(victim)
                kill_times.append(s.t0 + storm_rng.random() * (s.t1 - s.t0))
        #: Full fail-stop schedule: plan kills + expanded storm kills.
        self.kill_schedule = tuple(zip(kill_ranks, kill_times))
        #: Optional loss observer (e.g. the service workload taints
        #: tasks whose nodes died); called with every lost-node batch.
        self.on_lost = None
        # Failure-detector state.
        self.dead: set[int] = set()
        self.last_beat = [0.0] * n
        self._suspicion_seen: set[int] = set()
        # Loss accounting.  Every lost descriptor is attributed to
        # exactly one bucket -- on-stack (cleared from the corpse's
        # SplitStack, so subtracted from the conservation ledger) or
        # in-flight (already counted out of the stacks via
        # stolen_from_me, so *not* subtracted again).  The split is
        # asserted in check_conservation().
        self.lost_descriptors: List[Any] = []
        self._lost_stack_nodes = 0
        self._lost_in_flight_nodes = 0
        # Open work transfers: rank -> nodes it popped from a victim's
        # shared region but has not yet handed over (at most one per
        # rank: the transfer lives in that rank's generator frame).
        self._open_transfer: dict[int, List[Any]] = {}
        # Granted-but-unfetched steal responses: thief rank -> nodes.
        self._responses: dict[int, List[Any]] = {}
        # Thread slowdowns apply from the first instruction.
        for rank in plan.slow_ranks:
            machine.contexts[rank]._slow = plan.slow_factor

    def attach(self, algo) -> None:
        """Bind the algorithm instance (after its construction)."""
        self.algo = algo

    @property
    def watching_deaths(self) -> bool:
        return bool(self.kill_schedule)

    def _rate(self, category: str, base: float) -> float:
        """Effective rate for ``category`` now: base, or a storm override.

        Only consulted when the plan carries rate-class storms, so
        storm-free plans keep the exact historical draw sequence.
        """
        now = self.machine.sim.now
        for s in self._rate_storms:
            if s.category == category and s.t0 <= now < s.t1:
                if s.magnitude > base:
                    base = s.magnitude
        return base

    # -- message faults ----------------------------------------------------

    def route_message(self, msg) -> List[Any]:
        """Decide a posted message's fate; returns deliveries (0..2)."""
        tr = self.machine.tracer
        if msg.dst in self.dead:
            self.counters.msgs_to_dead += 1
            if tr.enabled:
                tr.emit(self.machine.sim.now, msg.dst, "fault.msg_to_dead",
                        (msg.src, msg.tag))
            self.algo.on_msg_to_dead(msg)
            return []
        plan = self.plan
        drop_rate = plan.msg_drop_rate
        delay_rate = plan.msg_delay_rate
        dup_rate = plan.msg_dup_rate
        if self._rate_storms:
            drop_rate = self._rate("drop", drop_rate)
            delay_rate = self._rate("delay", delay_rate)
            dup_rate = self._rate("dup", dup_rate)
        if (drop_rate > 0.0
                and msg.tag in self.algo.droppable_tags
                and self._drop.chance(drop_rate)):
            self.counters.msgs_dropped += 1
            if tr.enabled:
                tr.emit(self.machine.sim.now, msg.dst, "fault.drop",
                        (msg.src, msg.tag))
            return []
        if (delay_rate > 0.0
                and self._delay.chance(delay_rate)):
            extra = self._delay.uniform(0.0, plan.msg_delay_max)
            msg = msg._replace(arrival_time=msg.arrival_time + extra)
            self.counters.msgs_delayed += 1
            if tr.enabled:
                tr.emit(self.machine.sim.now, msg.dst, "fault.delay",
                        (msg.src, msg.tag, extra))
        out = [msg]
        if (dup_rate > 0.0
                and msg.tag in self.algo.duplicable_tags
                and self._dup.chance(dup_rate)):
            late = self._dup.uniform(0.0, plan.msg_delay_max)
            out.append(msg._replace(arrival_time=msg.arrival_time + late))
            self.counters.msgs_duplicated += 1
            if tr.enabled:
                tr.emit(self.machine.sim.now, msg.dst, "fault.dup",
                        (msg.src, msg.tag))
        return out

    # -- timing faults -----------------------------------------------------

    def roll_lock_stall(self, rank: int = -1) -> float:
        """Extra hold time to inject into the current lock release.

        ``rank`` identifies the stalled holder in the trace stream only;
        the roll itself is rank-independent.
        """
        plan = self.plan
        rate = plan.lock_stall_rate
        if self._rate_storms:
            rate = self._rate("stall", rate)
        if rate > 0.0 and self._stall.chance(rate):
            self.counters.lock_stalls += 1
            tr = self.machine.tracer
            if tr.enabled:
                tr.emit(self.machine.sim.now, rank, "fault.stall",
                        (plan.lock_stall_time,))
            return plan.lock_stall_time
        return 0.0

    def on_staleable_write(self, var) -> None:
        """Maybe open a stale-visibility window over ``var``'s old value."""
        plan = self.plan
        rate = plan.stale_read_rate
        if self._rate_storms:
            rate = self._rate("stale", rate)
        if rate > 0.0 and self._stale.chance(rate):
            var.stale_value = var.value
            var.stale_until = self.machine.sim.now + plan.stale_read_window
            self.counters.stale_windows += 1
            tr = self.machine.tracer
            if tr.enabled:
                tr.emit(self.machine.sim.now, var.home, "fault.stale",
                        (var.name, var.stale_until))

    # -- failure detection -------------------------------------------------

    def suspected(self, rank: int) -> bool:
        """Has the failure detector declared ``rank`` dead?

        Suspicion is *accurate by construction* (a rank is only
        suspected if it actually fail-stopped) but *late by design*:
        the detector needs ``HEARTBEAT_MISS`` silent epochs, modelling
        the detection latency a real heartbeat scheme pays.
        """
        if rank not in self.dead:
            return False
        if self.machine.sim.now - self.last_beat[rank] < self.plan.suspect_after:
            return False
        if rank not in self._suspicion_seen:
            self._suspicion_seen.add(rank)
            self.counters.heartbeat_suspicions += 1
            tr = self.machine.tracer
            if tr.enabled:
                tr.emit(self.machine.sim.now, rank, "fault.suspect")
        return True

    # -- steal-retry backoff -----------------------------------------------

    def next_steal_timeout(self, current: float) -> float:
        """Next steal-retry timeout: double, jitter, then hard-cap.

        Centralises the retry schedule so no protocol can back off past
        ``plan.steal_timeout_max`` -- under a fault storm a thief may be
        refused for the whole window, and an uncapped doubling would
        push its next probe beyond the simulation horizon.  With
        ``steal_retry_jitter > 0`` each doubling is perturbed by a
        substream draw (deterministic, seed-reproducible) so thieves
        that timed out together spread their retries; the default 0.0
        reproduces the historical ``min(2x, cap)`` schedule exactly and
        consumes no draws.
        """
        plan = self.plan
        nxt = current * 2.0
        jitter = plan.steal_retry_jitter
        if jitter > 0.0:
            nxt *= 1.0 + jitter * (self._retry.random() - 0.5)
        cap = plan.steal_timeout_max
        return cap if nxt > cap else nxt

    # -- work-transfer journal ---------------------------------------------

    def begin_transfer(self, rank: int, nodes: List[Any]) -> None:
        """``rank`` holds ``nodes`` mid-transfer in its generator frame."""
        if rank in self._open_transfer:
            # At most one transfer can live in a rank's frame; a second
            # journal entry would orphan the first one's nodes (they
            # would be lost without ever being accounted).
            raise ProtocolError(
                f"T{rank} opened a second transfer while "
                f"{len(self._open_transfer[rank])} node(s) from its "
                f"first are still journalled")
        self._open_transfer[rank] = nodes

    def end_transfer(self, rank: int) -> None:
        self._open_transfer.pop(rank, None)

    def register_response(self, thief: int, nodes: List[Any]) -> None:
        """Work granted to ``thief`` but not yet pushed on its stack."""
        if thief in self._responses:
            raise ProtocolError(
                f"T{thief} granted a second steal response while "
                f"{len(self._responses[thief])} node(s) from its first "
                f"are still journalled")
        self._responses[thief] = nodes

    def clear_response(self, thief: int) -> None:
        self._responses.pop(thief, None)

    # -- loss accounting ---------------------------------------------------

    def account_lost(self, nodes: List[Any], on_stack: bool = False) -> None:
        """Record node descriptors destroyed by a fail-stop fault.

        ``on_stack=True`` means the nodes were cleared from the dead
        rank's own stack (they still count in the conservation ledger's
        stack totals, so the ledger subtracts them); ``False`` means
        they died mid-steal (already excluded from the stacks via
        ``stolen_from_me_nodes``, so subtracting them again would
        double-count the loss).
        """
        self.lost_descriptors.extend(nodes)
        self.counters.lost_nodes += len(nodes)
        if on_stack:
            self._lost_stack_nodes += len(nodes)
            self.counters.lost_nodes_on_stack += len(nodes)
        else:
            self._lost_in_flight_nodes += len(nodes)
            self.counters.lost_nodes_in_flight += len(nodes)
        tr = self.machine.tracer
        if tr.enabled:
            tr.emit(self.machine.sim.now, -1, "fault.lost", (len(nodes),))
        if self.on_lost is not None:
            self.on_lost(nodes)

    def on_thread_death(self, rank: int) -> None:
        """Account a fail-stopped thread's work; keep the ledger exact.

        Called synchronously at the kill instant (from the dying
        thread's ``ThreadKilled`` handler, or from the watchdog if the
        thread never started), so all adjustments land atomically.
        """
        algo = self.algo
        self.dead.add(rank)
        self.counters.threads_killed += 1
        tr = self.machine.tracer
        if tr.enabled:
            tr.emit(self.machine.sim.now, rank, "fault.kill")
        # A transfer open in the dead thread's frame: the nodes were
        # popped from a victim and exist only in the corpse.
        nodes = self._open_transfer.pop(rank, None)
        if nodes:
            algo.in_flight_nodes -= len(nodes)
            self.account_lost(nodes)
        # Work granted *to* the dead thread that it never fetched.
        nodes = self._responses.pop(rank, None)
        if nodes:
            algo.in_flight_nodes -= len(nodes)
            self.account_lost(nodes)
        # Everything still on the dead thread's stack is lost.
        stack = algo.stacks[rank]
        orphans = list(stack.local)
        for chunk in stack.shared:
            orphans.extend(chunk)
        if orphans:
            stack.local.clear()
            stack.shared.clear()
            self.account_lost(orphans, on_stack=True)
        # Advertise NO_WORK so probes route around the corpse, and free
        # any lock the corpse held or queued for.
        algo.work_avail[rank].poke(_NO_WORK)
        # Under idle_strategy='park' the corpse must leave the gate's
        # category counters: a dead rank can neither be woken nor keep
        # n_active inflated (which would starve the wake_all-on-drain).
        gate = getattr(algo, "_gate", None)
        if gate is not None:
            gate.on_death(rank)
        for lk in self.machine._locks:
            lk.on_thread_death(rank)
        algo.on_thread_death(rank)

    # -- conservation ------------------------------------------------------

    def check_conservation(self) -> None:
        """Assert the node-conservation ledger (see module docstring)."""
        algo = self.algo
        total = pushes = pops = stolen = 0
        for stack in algo.stacks:
            total += stack.total_nodes
            pushes += stack.pushes
            pops += stack.pops
            stolen += stack.stolen_from_me_nodes
        expected = pushes - pops - stolen - self._lost_stack_nodes
        if total != expected:
            raise ProtocolError(
                f"conservation violated at t={self.machine.sim.now:.6f}: "
                f"stacks hold {total} node(s) but ledger expects {expected} "
                f"(pushes={pushes} pops={pops} stolen={stolen} "
                f"lost_from_stacks={self._lost_stack_nodes})")
        if algo.in_flight_nodes < 0:
            raise ProtocolError(
                f"in_flight_nodes went negative "
                f"({algo.in_flight_nodes}) at t={self.machine.sim.now:.6f}")
        lost = self.counters.lost_nodes
        if lost != self._lost_stack_nodes + self._lost_in_flight_nodes:
            raise ProtocolError(
                f"loss attribution violated at t={self.machine.sim.now:.6f}: "
                f"{lost} lost node(s) but on_stack={self._lost_stack_nodes} "
                f"+ in_flight={self._lost_in_flight_nodes}")
        self.counters.invariant_checks += 1

    def lost_work_total(self, tree) -> int:
        """Exact subtree size under every lost descriptor.

        A lost node was never visited, so none of its descendants were
        ever generated -- the lost subtrees are disjoint and their
        total is exactly the gap to the sequential oracle.  On the
        materialised layout a descriptor is a position and the answer
        is in ``size``; any other search space is walked.
        """
        size = getattr(tree, "size", None)
        if size is not None:
            total = sum(size[root] for root in self.lost_descriptors)
        else:
            children = tree.children
            total = 0
            for root in self.lost_descriptors:
                stack = [root]
                while stack:
                    node = stack.pop()
                    total += 1
                    stack.extend(children(node))
        self.counters.lost_work = total
        return total

    # -- background processes ----------------------------------------------

    def start(self) -> None:
        """Spawn watchdogs after the worker threads (order is fixed for
        determinism): kill timers, heartbeats, and the ledger checker."""
        sim = self.machine.sim
        procs = list(self.machine._procs)

        def threads_running() -> bool:
            return any(p.alive for p in procs)

        def kill_watch(rank: int, t_kill: float):
            # Sleep in heartbeat-sized steps so a run that finishes
            # before the kill time is not held open until t_kill.
            step = self.plan.heartbeat_period
            while sim.now < t_kill:
                if not threads_running():
                    return
                yield Timeout(min(step, t_kill - sim.now))
            target = procs[rank]
            if target.alive:
                sim.interrupt(target, ThreadKilled(
                    f"T{rank} fail-stopped at t={sim.now:.6f}"))
            if rank not in self.dead:
                # The body never ran its ThreadKilled handler (killed
                # before its first instruction): account here.
                self.on_thread_death(rank)

        def heartbeat(rank: int):
            target = procs[rank]
            while target.alive:
                self.last_beat[rank] = sim.now
                yield Timeout(self.plan.heartbeat_period)

        def checker():
            while threads_running():
                self.check_conservation()
                yield Timeout(self.plan.check_period)

        for rank, t_kill in self.kill_schedule:
            sim.spawn(kill_watch(rank, t_kill), name=f"faults.kill[T{rank}]")
        if self.kill_schedule:
            for rank in range(self.machine.n_threads):
                sim.spawn(heartbeat(rank), name=f"faults.beat[T{rank}]")
        sim.spawn(checker(), name="faults.checker")
