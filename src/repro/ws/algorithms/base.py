"""Shared machinery for the load-balancing implementations.

:class:`AlgorithmBase` owns the per-thread stacks, stats, ``work_avail``
array, the tree-exploration inner loop, and the protocol-independent
skeleton of Figure 1: the ``thread_main`` state machine, the one
Working state, the probe / back-off search phase (polling and parked),
the Stealing state's attempt bookkeeping, and the glue that swaps in
the compiled phases of :mod:`repro.fastpath`.  A variant supplies what
differs -- the Working state's four switches, its steal claim
(``_claim``), and (for request/response protocols) the ``request``
poll slots with their ``service_request`` -- and may replace
``thread_main`` wholesale when its idle side is not a probe loop
(``mpi-ws``, ``tree-split``).

Simulation granularity: tree nodes are visited for real (SHA-1 spawns
and exact counts) in *batches* of at most ``poll_interval`` nodes;
simulated time is charged per batch.  All protocol interactions (locks,
releases, steals, barriers) happen at batch boundaries, which is also
how the real implementations behave -- a working thread notices steals
and requests only when it touches its stack bookkeeping.
"""

from __future__ import annotations

import math
from typing import Generator, List

from repro.errors import ConfigError, ProtocolError
from repro.metrics.counters import ThreadStats
from repro.metrics.states import (SEARCHING, STEALING, WORKING,
                                   StateTimer)
from repro.pgas.collectives import reduction_time
from repro.pgas.machine import Machine, UpcContext
from repro.sim.engine import SimEvent, Timeout
from repro.uts.tree import Tree
from repro.ws.config import WsConfig
from repro.ws.policies import ProbeOrder, ProbeScan, StealAmount, steal_one
from repro.ws.registry import (STEAL_AMOUNTS, TERMINATION_POLICIES,
                               VICTIM_POLICIES)
from repro.ws.stack import SplitStack

__all__ = ["AlgorithmBase", "NO_WORK", "flatten"]

#: ``work_avail`` sentinel: the thread has no work at all (Sect. 3.3.1
#: relies on distinguishing this from "working with no surplus" == 0).
NO_WORK = -1

#: Shared zero-cost Timeout: yielding it schedules the same
#: ``(now, next_seq)`` resumption an immediately-granted lock event
#: would, without allocating a SimEvent (Timeouts are immutable, so one
#: object serves every process).
_T0 = Timeout(0.0)


def flatten(chunks: List[List]) -> List:
    """Concatenate stolen chunks into one node list."""
    return [node for chunk in chunks for node in chunk]


class AlgorithmBase:
    """Common state + helpers; subclasses implement ``thread_main``."""

    #: Label used in figures (matches the paper's Figure 3 legend).
    name = "abstract"
    #: How many chunks a thief takes, given the victim's availability.
    steal_amount: StealAmount = staticmethod(steal_one)
    #: Native victim-selection policy (a
    #: :data:`repro.ws.registry.VICTIM_POLICIES` key); overridable per
    #: run via ``WsConfig.victim_policy``.
    victim_policy: str = "uniform"
    #: Termination-policy keys this algorithm can host (the first is
    #: its native default); ``WsConfig.termination_policy`` must name
    #: one of these.  The abstract base has no detector.
    termination_policies: tuple = ("none",)
    #: Steal-amount keys ``WsConfig.steal_policy`` may override with.
    #: Most algorithms accept any registered amount; algorithms whose
    #: transfer protocol is structurally single-chunk (the fence-free
    #: claim moves exactly one index) restrict this tuple.
    steal_policies: tuple = ("all", "half", "one")
    #: Victim-policy keys ``WsConfig.victim_policy`` may override with.
    #: Algorithms that never probe victims (tree-split) restrict this.
    victim_policies: tuple = ("hierarchical", "uniform")
    #: Fault classes (``FaultPlan.fault_classes`` names) this algorithm
    #: tolerates, or None for the full catalog.  Restricted algorithms
    #: reject plans carrying anything else at construction -- e.g. the
    #: fence-free variant has no locks to stall and no fail-stop
    #: recovery story, so only ``stale`` windows make sense for it.
    fault_classes: tuple = None
    #: True when this algorithm may legitimately *duplicate* work
    #: (relaxed-semantics stealing with multiplicity): the invariant
    #: monitor then checks the bounded-multiplicity forms I1'/I3'
    #: against the algorithm's ``dup_extra``/``dup_work`` ledger
    #: instead of the strict single-owner forms.
    multiplicity_relaxed: bool = False
    #: Message tags the fault layer may drop for this algorithm.  Only
    #: the *control* channel is lossy; work payloads are delay-only
    #: (reliable transport), so dropped messages cost retries, not
    #: nodes.  Message-free algorithms leave both sets empty.
    droppable_tags: frozenset = frozenset()
    #: Message tags the fault layer may duplicate.
    duplicable_tags: frozenset = frozenset()
    #: Victim-side poll slots: per-rank shared variables a thief writes
    #: its ID into, tested at every poll point of the search phases and
    #: answered by :meth:`service_request` (``upc-distmem``'s request
    #: variables).  None when thieves take work themselves, under the
    #: victim's lock, so a victim has nothing to poll.
    request = None
    # The switches of :meth:`working_phase`, read once before the loop
    # starts (:meth:`_build_c_phase` hands (a)-(c) to the compiled
    # phase); ``request`` above is one kind of poll point (a).
    #: (a) The other kind (``mpi-ws``): ``_mail(rank)`` returns the
    #: rank's mailbox heap and a taker of arrived working-time
    #: messages, each handled by ``_working_msg(ctx, msg)``.
    _mail = None
    #: (b) Whether the owner publishes its chunk count in ``work_avail``.
    _publishes_avail = True
    #: (c) Per-rank ``(lock, round-trip Timeout or None)`` when stack
    #: moves run under an own-stack lock; whoever sets it supplies the
    #: generic ``release``/``reacquire`` faulted runs take, and
    #: ``after_release`` when ``_after_release_hook`` is on.
    _own_lock = None
    _after_release_hook = False
    #: (d) Owner-side ``hook(rank, releasing)`` run between a stack move
    #: and its ``work_avail`` publish (``ws-fencefree``'s put/take).
    _after_move = None

    def __init__(self, machine: Machine, tree: Tree, cfg: WsConfig) -> None:
        self.machine = machine
        self.tree = tree
        self.cfg = cfg
        self.net = machine.net
        #: Fault runtime when this run injects faults, else None.  All
        #: recovery paths key off this single attribute.
        self.faults_rt = machine.faults
        if self.faults_rt is not None and type(self).fault_classes is not None:
            allowed = type(self).fault_classes
            bad = sorted(set(self.faults_rt.plan.fault_classes)
                         - set(allowed))
            if bad:
                raise ConfigError(
                    f"{self.name} supports fault classes {sorted(allowed)}; "
                    f"plan contains: {', '.join(bad)}"
                )
        # Effective per-node visit time: the platform's sequential rate
        # scaled by the workload's compute granularity (UTS knob for
        # more expensive state evaluation).
        granularity = getattr(getattr(tree, "params", None),
                              "compute_granularity", 1)
        self.t_node = machine.net.node_visit_time * granularity
        if cfg.steal_policy is not None:
            # Ablation hook: override the algorithm's native policy
            # (registry lookup resolves to the same function objects
            # the class attributes use, so ablations stay identical).
            supported = type(self).steal_policies
            if cfg.steal_policy not in supported:
                raise ConfigError(
                    f"{self.name} supports steal policies "
                    f"{sorted(supported)}; got {cfg.steal_policy!r}"
                )
            self.steal_amount = STEAL_AMOUNTS.get(cfg.steal_policy)
        if cfg.victim_policy is not None \
                and cfg.victim_policy not in type(self).victim_policies:
            raise ConfigError(
                f"{self.name} supports victim policies "
                f"{sorted(type(self).victim_policies)}; "
                f"got {cfg.victim_policy!r}"
            )
        n = machine.n_threads
        self.stacks = [SplitStack() for _ in range(n)]
        self.stats = [
            ThreadStats(rank=r, timer=StateTimer(WORKING if r == 0 else SEARCHING))
            for r in range(n)
        ]
        #: Hot-path constants, hoisted once: the per-event loops below
        #: must not pay a dataclass property or attribute chase per
        #: batch (see docs/performance.md, "engine hot path").
        self.tracer = machine.tracer
        self.sim = machine.sim
        self._poll_interval = cfg.poll_interval
        self._release_threshold = cfg.release_threshold
        #: True on fault-free runs: the compute-time multiplier is
        #: exactly 1.0 and stale-read windows can never open, so hot
        #: loops may yield precomputed Timeouts and read shared slots
        #: directly (bit-identical to the generic path).
        self._fast = machine.faults is None
        #: Reusable Timeout per possible batch size (visiting n nodes
        #: always costs exactly n * t_node on the fast path).  None when
        #: a batch costs no simulated time (the generic path then skips
        #: the yield entirely, so reusing a zero Timeout would add
        #: events).
        if self.t_node > 0:
            self._visit_timeouts = [Timeout(i * self.t_node)
                                    for i in range(cfg.poll_interval + 1)]
        else:
            self._visit_timeouts = None
        #: Heterogeneous-machine state (scenario layer).  All None/empty
        #: on a homogeneous run: the hot paths test one attribute and
        #: fall through to the baseline tables, so the canonical
        #: schedule is untouched.
        self._speed_factors = None
        self._vt_cache: dict = {}
        self._visit_costs: dict = {}  # the same tables, as float lists
        #: Per-rank steal-amount overrides (greedy-thief adversary) and
        #: duplicating-steal ranks; None when no adversary is installed.
        self._rank_steal = None
        self._dup_ranks = None
        if cfg.speed_factors is not None:
            if len(cfg.speed_factors) != n:
                raise ConfigError(
                    f"speed_factors has {len(cfg.speed_factors)} "
                    f"entries for {n} threads"
                )
            self._set_speed_factors(cfg.speed_factors)
        #: Fused expansion hook: a materialized tree runs the DFS inner
        #: loop against its flat arrays (bit-identical, no per-node
        #: children() call); implicit trees use explore_batch's own loop.
        #: With the compiled backend selected, the same inner loop runs
        #: in C (repro.fastpath._core.batch_expand -- an exact mirror,
        #: so the pops/pushes/visit counts cannot diverge).
        self._batch_expand = getattr(tree, "batch_expand", None)
        #: The park scan kernel: on the compiled backend, its C twin.
        self._scan_probe = ProbeScan.probe
        if machine.sim.fastpath == "fast":
            from repro.fastpath import batch_expander, load_core
            self._scan_probe = load_core().scan_probe
            self._batch_expand = batch_expander(tree) or self._batch_expand
        #: Chunks available per thread; NO_WORK when a thread is idle.
        #: Staleable: under a stale-read fault plan, remote probes may
        #: briefly observe the pre-write value (inert without faults).
        self.work_avail = machine.shared_array("work_avail", init=NO_WORK,
                                               staleable=True)
        #: The same SharedVar slots as a plain list: probe loops index
        #: this at C speed instead of paying ``SharedArray.__getitem__``
        #: per victim.
        self._wa_slots = list(self.work_avail)
        self.work_avail[0].poke(0)
        #: Victim selection is a registry plug-in: the config key wins,
        #: else the algorithm's native policy.  The uniform factory
        #: builds the same ProbeOrder objects (no RNG draws at
        #: construction), so the default schedule is bit-identical.
        victim_factory = VICTIM_POLICIES.get(
            cfg.victim_policy or type(self).victim_policy)
        net = machine.net
        self.probe_orders = [
            victim_factory(r, n, machine.contexts[r].rng, net)
            for r in range(n)
        ]
        #: Nodes popped from a victim's stack but not yet pushed onto the
        #: thief's (in transfer).  Part of the quiescence oracle.
        self.in_flight_nodes = 0
        # Thread 0 starts with the root; everyone else starts searching.
        self.stacks[0].push(tree.root())
        #: Event-driven idle coordination (``idle_strategy="park"``), or
        #: None under the default polling strategy.  Every hot path
        #: tests this one attribute; with the gate absent the schedule
        #: is bit-identical to a build without the park layer.
        if cfg.idle_strategy == "park":
            from repro.ws.idle import IdleGate
            self._gate = IdleGate(
                machine.sim,
                [1 if s.peek() > 0 else (0 if s.peek() == 0 else -1)
                 for s in self._wa_slots],
            )
        else:
            self._gate = None
        #: Termination detection is a registry plug-in; the strategy
        #: owns the barrier (exposed as ``self.barrier``) and the
        #: idle-side phase.  Resolved before setup() so subclass setup
        #: can read it; each algorithm restricts the keys it can host.
        key = cfg.termination_policy
        supported = type(self).termination_policies
        if key is None:
            key = supported[0]
        elif key not in supported:
            raise ConfigError(
                f"{self.name} supports termination policies "
                f"{sorted(supported)}; got {key!r}"
            )
        self._termination = TERMINATION_POLICIES.get(key)(self)
        #: Compiled-phase fusion (repro.fastpath): None = undecided (the
        #: gates are checked at the first thread resume, after the
        #: adversaries install), else whether the C state machines
        #: replace the generators.  ``_c_phases`` caches the per-rank
        #: phase objects, built on demand.
        self._fuse = None
        self._c_phases: dict = {}
        self.setup()
        if cfg.adversaries:
            # Installed last: the actors mutate the per-rank tables
            # above (speeds, steal amounts, duplicators) after every
            # protocol object exists.
            from repro.scenarios.adversaries import install_adversaries
            install_adversaries(self, cfg.adversaries)

    def setup(self) -> None:
        """Hook for subclass shared state (locks, barriers, slots)."""

    def thread_main(self, ctx: UpcContext) -> Generator:
        """Figure 1's state machine, parameterized by the termination
        policy: work while the stack holds nodes, search per the
        policy's persistence rule, run its detection phase when the
        search gives up.  The four UPC variants are this one loop with
        different policies, steal protocols and poll slots plugged in;
        under park the search and termination phases park by
        themselves where a gate exists, and the compiled backend swaps
        in the fused C phases (identical yields and counters; the
        parked search stays a generator), which bounce back here
        whenever a steal request needs the Python service path.
        """
        rank = ctx.rank
        fuse = self._fuse
        if fuse is None:
            fuse = self._fuse = self._fusion_enabled()
        phase = sphase = None
        if (fuse and not (self._gate is not None
                          and self._termination.park_capable)
                and type(self).search_phase is AlgorithmBase.search_phase):
            sphase = self._compiled(self._build_c_search, rank)
        while True:
            if not self.stacks[rank].is_empty:
                if fuse:
                    # bound at the first Working entry: most ranks of a
                    # large parked machine never get there
                    phase = phase or self._compiled(self._build_c_phase, rank)
                    res = yield phase
                    while res is not None:
                        yield from self.service_request(ctx)
                        res = yield phase
                else:
                    yield from self.working_phase(ctx)
            if sphase is not None:
                found = yield from self._search_fused(ctx, sphase)
            else:
                found = yield from self.search_phase(ctx)
            if found:
                continue
            terminated = yield from self.termination_phase(ctx)
            if terminated:
                break
        # A last denial sweep: a thief's request may have landed while
        # we were inside the announcing barrier.
        yield from self.service_request(ctx)
        yield from self.final_reduction(ctx)

    def service_request(self, ctx: UpcContext) -> Generator:
        """Victim-side poll point: answer a steal request pending in
        ``request[rank]``.  Nothing to serve without poll slots."""
        return
        yield  # pragma: no cover - generator marker

    def guarded_main(self, ctx: UpcContext) -> Generator:
        """``thread_main`` under a fail-stop guard (faulted runs only).

        :class:`~repro.errors.ThreadKilled` rises out of the pending
        yield when the kill watchdog interrupts this thread; the
        handler (which must not yield) turns the corpse's work over to
        the loss accountant before the generator finishes.
        """
        from repro.errors import ThreadKilled
        try:
            yield from self.thread_main(ctx)
        except ThreadKilled:
            self.faults_rt.on_thread_death(ctx.rank)

    # -- fault hooks (no-ops by default; algorithms with protocol state
    # that can wedge on a dead peer override these) ------------------------

    def on_thread_death(self, rank: int) -> None:
        """A thread fail-stopped (called after its stack/flight work is
        accounted): release any algorithm state the corpse pinned.

        The base behaviour keeps the termination detector sound (a
        corpse must not wedge the barrier); subclasses with extra
        protocol state extend this and call ``super()``.
        """
        self._termination.on_thread_death(rank)

    def on_msg_to_dead(self, msg) -> None:
        """A message was addressed to an already-dead rank and is about
        to be discarded; account any work payload it carried."""

    def enter_state(self, ctx: UpcContext, state: str) -> None:
        """Transition ``ctx``'s thread to a Figure-1 state, recording it
        in both the state timer and (when tracing) the trace stream --
        the latter feeds :func:`repro.metrics.timeline.render_timeline`."""
        self.stats[ctx.rank].timer.enter(state, ctx.now)
        tr = self.tracer
        if tr.enabled:
            tr.emit(self.machine.sim.now, ctx.rank, "state", (state,))

    def _park_resume_delay(self, t0: float, backoff: float, now: float,
                           bmax: float, factor: float) -> tuple:
        """Map a wakeup at ``now`` onto the thread's *virtual* polling
        cadence: the probe ticks it would have taken had it kept
        backoff-polling from its park at ``t0`` with ``backoff``
        pending (doubling by ``factor`` up to the ``bmax`` cap).

        Returns ``(delay, next_backoff)``: sleep ``delay`` from now so
        the probe lands on the first virtual tick >= ``now``, with the
        backoff the cadence would carry past that tick.  Guarantees a
        parked thread never probes *more* often than the polling build
        -- park is strictly cheaper even under wake storms -- and
        spreads simultaneous wakeups over each thread's own cadence
        phase instead of thundering onto one timestamp.
        """
        t = t0 + backoff
        b = min(backoff * factor, bmax)
        while t < now:
            if b >= bmax:
                # Capped region: close the gap in one step.
                t += math.ceil((now - t) / bmax) * bmax
                break
            t += b
            b = min(b * factor, bmax)
        return (t - now if t > now else 0.0), b

    # -- termination policy delegation -------------------------------------

    def termination_phase(self, ctx: UpcContext) -> Generator:
        """Idle-side termination detection: True on global termination,
        False when the strategy obtained work (caller resumes working).
        Delegates to the plugged-in strategy; subclasses (and tests) may
        still override this wholesale."""
        return (yield from self._termination.phase(ctx))

    def barrier_service_hook(self, ctx: UpcContext) -> Generator:
        """Called each barrier poll iteration so message-serving
        algorithms (distmem) can answer steal requests while waiting.
        The default serves nothing."""
        return
        yield  # pragma: no cover - generator marker

    # -- scenario hooks: heterogeneous speeds & per-rank adversaries -------

    def _set_speed_factors(self, factors) -> None:
        """Install per-rank visit-cost multipliers (scenario layer)."""
        self._speed_factors = tuple(factors)

    def _scale_speed(self, rank: int, factor: float) -> None:
        """Multiply ``rank``'s visit cost by ``factor`` (slow-worker
        adversary; composes with a scenario speed profile)."""
        f = (list(self._speed_factors) if self._speed_factors is not None
             else [1.0] * self.machine.n_threads)
        f[rank] *= factor
        self._set_speed_factors(f)

    def t_node_of(self, rank: int) -> float:
        """Per-node visit time for ``rank`` (== ``t_node`` on the
        homogeneous machine)."""
        f = self._speed_factors
        return self.t_node if f is None else self.t_node * f[rank]

    def _visit_timeouts_for(self, rank: int):
        """The precomputed batch-cost Timeout table for ``rank``.

        Homogeneous runs (and factor-1.0 ranks) reuse the shared table
        unchanged -- same Timeout objects, bit-identical schedule.
        Scaled ranks get a per-factor table, built once and cached, so
        heterogeneous runs keep the fast path's no-allocation property.
        """
        f = self._speed_factors
        if f is None or self._visit_timeouts is None:
            return self._visit_timeouts
        factor = f[rank]
        if factor == 1.0:
            return self._visit_timeouts
        vt = self._vt_cache.get(factor)
        if vt is None:
            t = self.t_node * factor
            vt = self._vt_cache[factor] = [
                Timeout(i * t) for i in range(self.cfg.poll_interval + 1)
            ]
        return vt

    def _set_rank_steal(self, rank: int, fn: StealAmount) -> None:
        """Override the steal-amount policy for one thief rank
        (greedy-thief adversary)."""
        if self._rank_steal is None:
            self._rank_steal = [None] * self.machine.n_threads
        self._rank_steal[rank] = fn

    def _mark_duplicator(self, rank: int) -> None:
        """Mark ``rank`` as a duplicating stealer: after every
        successful steal it immediately issues a redundant second
        attempt against the same victim."""
        self._dup_ranks = (self._dup_ranks or frozenset()) | {rank}

    def _steal_for(self, thief: int, available_chunks: int) -> int:
        """Chunks ``thief`` takes given availability: the per-rank
        adversary override when installed, else the algorithm policy."""
        r = self._rank_steal
        if r is not None:
            fn = r[thief]
            if fn is not None:
                return fn(available_chunks)
        return self.steal_amount(available_chunks)

    # -- working -----------------------------------------------------------

    def _advertise(self, rank: int, value: int) -> None:
        """Write ``work_avail[rank]`` and tell the idle gate: the one
        home of the pair outside :meth:`working_phase`'s hot loop, so no
        write site can forget the note (a lost wake-up under park)."""
        self._wa_slots[rank].poke(value)
        if self._gate is not None:
            self._gate.note(rank, value)

    def working_phase(self, ctx: UpcContext) -> Generator:
        """Figure 1's Working state, the only copy: deplete the DFS
        stack a batch at a time, notice thieves only at batch
        boundaries, release surplus past the threshold, reacquire when
        the local region runs dry.  What a variant changes is under
        what synchronisation a chunk crosses between the local and
        shared regions -- the class-level switches (a)-(d) read below,
        never a test of which variant is running.

        Three things are inlined here, once, because the ledger pays
        for each (docs/performance.md, "engine hot path"): the
        ``SplitStack`` moves, the ``work_avail`` write and ``FifoLock``'s
        transitions.  Faulted runs under a lock take the generic
        ``release``/``reacquire`` instead, which roll stalls and keep
        the holder bookkeeping fail-stop recovery reads
        (tests/ws/test_inlined_equals_generic.py pins the two
        bit-identical).  ``explore_batch`` stays a call: it is the one
        home of the visit bookkeeping ``tree-split`` shares.
        """
        rank = ctx.rank
        stack = self.stacks[rank]
        st = self.stats[rank]
        local = stack.local
        shared = stack.shared
        fast = self._fast
        vt = self._visit_timeouts_for(rank) if fast else None
        tn = self.t_node_of(rank)
        thresh = self._release_threshold
        chunk = self.cfg.chunk_size
        explore = self.explore_batch
        tr = self.tracer
        sim = self.sim
        gate = self._gate
        req_slot = self.request[rank] if self.request is not None else None
        mailbox, take = (self._mail(rank) if self._mail is not None
                         else (None, None))
        wa = self._wa_slots[rank] if self._publishes_avail else None
        hook = self._after_move
        lk = None
        if self._own_lock is not None:
            lk, lock_to = self._own_lock[rank]
            fifo = lk.fifo
            queue = fifo._queue
        generic = lk is not None and not fast
        after = self.after_release if self._after_release_hook else None
        # A release is recorded where the chunk crosses under (c) or
        # (d); plain owner-only moves are not (docs/observability.md).
        traced = lk is not None or hook is not None
        self.enter_state(ctx, WORKING)
        if wa is not None:
            self._advertise(rank, len(shared))
        while True:
            if req_slot is not None:
                if req_slot.value is not None:
                    yield from self.service_request(ctx)
            elif mailbox is not None:
                while (mailbox and mailbox[0][0] <= sim.now
                       and (msg := take()) is not None):
                    reply = self._working_msg(ctx, msg)
                    if reply is not None:
                        yield from reply
            if local:
                n = explore(rank)
                if n:
                    if vt is not None:
                        yield vt[n]
                    else:
                        yield from ctx.compute(n * tn)
                if len(local) < thresh:
                    continue
                releasing = True
            elif shared:
                releasing = False
            else:
                break
            # One stack move per pass: acquire, move, publish, unlock,
            # after-release.  Releases repeat while surplus remains; a
            # reacquire goes back to the poll point.
            while True:
                if generic:
                    yield from (self.release(ctx) if releasing
                                else self.reacquire(ctx))
                else:
                    if lk is not None:
                        if lock_to is not None:
                            yield lock_to
                        if not fifo.locked:
                            fifo.locked = True
                            fifo.acquisitions += 1
                            fifo._acquired_at = sim.now
                            yield _T0
                        else:
                            ev = SimEvent(sim, fifo._ev_name)
                            fifo.contended_acquisitions += 1
                            queue.append(ev)
                            yield ev
                        if tr.enabled:
                            tr.emit(sim.now, rank, "lock.acq", (lk.name,))
                    # ``shared`` is re-checked under the lock: a thief
                    # queued ahead of us may have taken the last chunk.
                    if releasing or shared:
                        if releasing:  # thresh >= chunk: always enough
                            shared.append(local[:chunk])
                            del local[:chunk]
                            stack.released_nodes += chunk
                        else:
                            got = shared.pop()
                            local[0:0] = got
                            stack.reacquired_nodes += len(got)
                        if hook is not None:
                            hook(rank, releasing)
                        if wa is not None:
                            avail = len(shared)
                            if fast:
                                wa.writes += 1
                                wa.value = avail
                            else:
                                wa.poke(avail)  # may open a stale window
                            if gate is not None:
                                gate.note(rank, avail)
                        if not releasing:
                            st.reacquires += 1
                    if lk is not None:
                        fifo.busy_time += sim.now - fifo._acquired_at
                        if queue:
                            fifo.acquisitions += 1
                            fifo._acquired_at = sim.now
                            queue.pop(0).succeed()
                        else:
                            fifo.locked = False
                        if tr.enabled:
                            tr.emit(sim.now, rank, "lock.rel", (lk.name,))
                    if releasing:
                        st.releases += 1
                        if traced and tr.enabled:
                            tr.emit(sim.now, rank, "release",
                                    (len(shared),))
                        if after is not None:
                            yield from after(ctx)
                if not releasing or len(local) < thresh:
                    break
        if wa is not None:
            self._advertise(rank, NO_WORK)
        # Deny any request that raced our transition to idle.
        if req_slot is not None and req_slot.value is not None:
            yield from self.service_request(ctx)
        self.enter_state(ctx, SEARCHING)

    # -- stealing ----------------------------------------------------------

    def try_steal(self, ctx: UpcContext, victim: int) -> Generator:
        """Figure 1's Stealing state, the only copy: count and record
        (``steal.req``) one attempt on ``victim``, which the variant's
        ``_claim`` carries out -- True if work was obtained -- and, for
        a duplicating-steal adversary's rank, re-raid the same victim
        once after a success (``dup=1``) to stress the race paths."""
        rank = ctx.rank
        st = self.stats[rank]
        tr = self.tracer
        st.steal_attempts += 1
        if tr.enabled:
            tr.emit(self.sim.now, rank, "steal.req", (victim,))
        ok = yield from self._claim(ctx, victim)
        if ok and self._dup_ranks is not None and rank in self._dup_ranks:
            st.steal_attempts += 1
            if tr.enabled:
                tr.emit(self.sim.now, rank, "steal.req", (victim, 1))
            yield from self._claim(ctx, victim)
        return ok

    def _steal_landed(self, ctx: UpcContext, victim: int, nodes: List,
                      n_chunks: int, dup: bool = False) -> None:
        """The thief-side ledger of a steal whose nodes just arrived:
        push them, settle ``in_flight_nodes``, count, and record."""
        rank = ctx.rank
        self.stacks[rank].push_many(nodes)
        self.in_flight_nodes -= len(nodes)
        st = self.stats[rank]
        st.steals_ok += 1
        st.chunks_stolen += n_chunks
        st.nodes_stolen += len(nodes)
        tr = self.tracer
        if tr.enabled:
            fields = (victim, n_chunks, len(nodes))
            tr.emit(self.sim.now, rank, "steal",
                    fields + (1,) if dup else fields)

    # -- searching ---------------------------------------------------------

    def search_phase(self, ctx: UpcContext) -> Generator:
        """Figure 1's Searching state, the only copy: probe for a
        victim, steal if found.

        Returns True once work is in hand.  Returns False when the
        thread should enter termination detection: after a single
        failed cycle if the termination policy does not persist while
        others work (sharedmem, Sect. 3.1), or only once no other
        thread is seen working (streamlined, Sect. 3.3.1).  With poll
        slots, a pending steal request is serviced at the top of every
        cycle, so a searching victim denies promptly (Sect. 3.3.3).

        Two switches are read before the loop starts: ``persist`` (the
        policy's ``persist_while_working``) and ``gate`` (the idle gate
        under ``idle_strategy="park"`` when the policy is park-capable;
        None means poll).  A gate changes three things, all keyed off
        its exact counters (updated at every ``work_avail`` write, so
        never stale):

        * A cycle runs only while ``gate.n_surplus > 0`` -- with nothing
          stealable anywhere a full scan *provably* fails -- and stops
          early once the last surplus is consumed mid-scan.
        * "Someone still works" is ``gate.n_active``, not a probe.
        * Between cycles with nothing stealable the thread parks on the
          gate instead of keeping a backoff Timeout in the event queue.
          Park requires ``n_surplus == 0 and n_active > 0``, checked
          with no yield before registration, so no wake-up is missed.
          On wake a pending request is served first -- a thief's
          targeted wake means it is blocked on our answer -- and the
          thread resumes on its virtual polling cadence
          (:meth:`_park_resume_delay`), never probing more often than
          polling would.

        The victims are read two ways, by design: polling reads
        :meth:`~repro.ws.policies.ProbeOrder.cycle` (whole shuffles; it
        tracks ``any_working`` and, under faults, reads through
        ``remote_read``), a gate reads
        :meth:`~repro.ws.policies.ProbeOrder.scan` (lazy draws, so a
        cycle a steal or the gate cuts short costs O(probed)
        host-side).  The two draw from the RNG in different orders, so
        each pinned schedule depends on which one runs.  Both price a
        probe from ``net.ref_cost_bounds`` (a cost row per rank would be
        O(n^2) machine-wide).
        """
        rank = ctx.rank
        st = self.stats[rank]
        term = self._termination
        persist = term.persist_while_working
        gate = self._gate if term.park_capable else None
        req_slot = self.request[rank] if self.request is not None else None
        slots = self._wa_slots
        bounds = self.net.ref_cost_bounds(rank)
        node_lo, node_hi, c_local, c_remote = bounds
        # Fault-free, a staleable slot's window can never open, so the
        # probe may read the value directly (identical result) instead
        # of paying remote_read's staleness bookkeeping per victim.
        fast = self._fast
        order = self.probe_orders[rank]
        probe = self._scan_probe
        bmax = self.cfg.search_backoff_max
        bfactor = self.cfg.search_backoff_factor
        backoff = self.cfg.search_backoff_min
        while True:
            if req_slot is not None and req_slot.value is not None:
                yield from self.service_request(ctx)
            if gate is None:
                victims = iter(order.cycle())
                any_working = False
            elif gate.n_surplus > 0:
                scan = order.scan()
            else:
                if not persist or gate.n_active == 0:
                    return False
                # Some thread is working but nothing is stealable: park.
                t_park = ctx.now
                ctx.trace("idle.park")
                yield gate.park(rank)
                ctx.trace("idle.wake")
                if req_slot is not None and req_slot.value is not None:
                    yield from self.service_request(ctx)
                delay, backoff = self._park_resume_delay(
                    t_park, backoff, ctx.now, bmax, bfactor)
                if delay > 0:
                    yield Timeout(delay)
                continue
            while True:
                # Probe on to the next victim with surplus (None once
                # the cycle is exhausted), counting and pricing each.
                if gate is None:
                    cost_acc = 0.0
                    n_probes = 0
                    for victim in victims:
                        n_probes += 1
                        cost_acc += (c_local if node_lo <= victim < node_hi
                                     else c_remote)
                        avail = (slots[victim].value if fast else
                                 slots[victim].remote_read(ctx.now, rank))
                        if avail == 0:
                            any_working = True
                        elif avail > 0:
                            break
                    else:
                        victim = None
                else:
                    victim, cost_acc, n_probes = probe(scan, slots, bounds)
                st.probes += n_probes
                if cost_acc > 0:
                    yield from ctx.compute(cost_acc)
                if victim is None:
                    break
                self.enter_state(ctx, STEALING)
                ok = yield from self.try_steal(ctx, victim)
                self.enter_state(ctx, SEARCHING)
                if ok:
                    return True
                if gate is None:
                    # Empty or denied: "the probe proceeds to the next
                    # victim" (Sect. 3.1; likewise 3.3.3).
                    any_working = True
                elif gate.n_surplus == 0:
                    # Only a steal attempt yields, so only here can the
                    # surplus count have changed under the scan.
                    scan.abandon()
                    break
            # A scan holds O(n) victims (array('i')): drop it before waiting.
            scan = None
            if not persist or (gate is None and not any_working):
                return False
            yield from ctx.compute(backoff)
            backoff = min(backoff * bfactor, bmax)

    # -- compiled-phase fusion (repro.fastpath) -----------------------------

    def _fusion_enabled(self) -> bool:
        """Whether the compiled phases may replace the generators.

        Every gate guards a behaviour the C state machines do not
        reproduce: a fused phase is exactly the fault-free, trace-off
        generator over the materialised layout (a ``MaterializedTree``,
        or a service stream's workload over its task forest; under
        either idle strategy: the compiled Working state tells the idle
        gate what the generator does), so anything else -- faults,
        tracing, a search space without ``delta``/``size`` arrays, or
        (per protocol, :meth:`_fusable`) an override of a method the C
        code stands in for -- falls back to the generator.  The
        schedules are bit-identical either way; only host speed differs.
        """
        if (self.sim._crun is None
                or not self._fast
                or self.tracer.enabled
                or self._visit_timeouts is None
                or getattr(self.tree, "delta", None) is None):
            return False
        return self._fusable()

    def _fusable(self) -> bool:
        """The protocol's own fusion gates, stated from the switches:
        the compiled phase takes (a)-(c) but knows no after-move hook,
        and a subclass that replaces :meth:`working_phase` keeps its
        own."""
        return (self._after_move is None
                and type(self).working_phase is AlgorithmBase.working_phase)

    def _compiled(self, build, rank: int):
        """``build(rank)`` -- one of the ``_build_c_*`` binders -- once
        per rank: a compiled phase is bound to that rank's objects and
        reused across episodes.  None when the binder declines."""
        key = (build.__name__, rank)
        ph = self._c_phases.get(key)
        if ph is None and (ph := build(rank)) is not None:
            self._c_phases[key] = ph
        return ph

    def _build_c_phase(self, rank: int):
        """Bind one ``repro.fastpath._core.WorkPhase`` to this rank: its
        stack containers, counters and tree, and switches (a)-(c) read
        exactly as :meth:`working_phase` reads them, None meaning off
        (the idle gate rides on (b)).  A search space whose scan books
        its batches states that as ``ledger`` (a service workload's
        per-task drain tables), and the phase books them the same way.
        The phase makes both ``work_avail`` pokes around the loop
        itself; the callbacks are the two state-timer transitions.
        Nothing bound is O(threads).

        The costs handed over are the exact floats the generator's
        precomputed Timeouts carry (``Timeout.delay`` read back, not
        recomputed), so the C phase schedules the identical timestamps.
        """
        from repro.fastpath import load_core
        sim = self.sim
        stack = self.stacks[rank]
        st = self.stats[rank]
        enter = st.timer.enter
        tn = self.t_node_of(rank)
        costs = self._visit_costs.get(tn) or self._visit_costs.setdefault(
            tn, [t.delay for t in self._visit_timeouts_for(rank)])
        wa = self._wa_slots[rank] if self._publishes_avail else None
        gate = self._gate if wa is not None else None
        pending, poll = (self._mail(rank) if self._mail is not None
                         else (None, None))
        fifo = queue = lock_to = barrier = None
        if self._own_lock is not None:
            lk, lock_to = self._own_lock[rank]
            fifo = lk.fifo
            queue = fifo._queue
            if self._after_release_hook:  # the stock one: see _fusable
                barrier = self._termination.barrier
        task_of, outstanding, task_nodes, drained = getattr(
            self.tree, "ledger", None) or (None,) * 4
        return load_core().WorkPhase(
            sim=sim,
            local=stack.local,
            shared=stack.shared,
            shared_append=stack.shared.append,
            shared_pop=stack.shared.pop,
            stack=stack,
            st_dict=st.__dict__,
            enter_cb=lambda: enter(WORKING, sim.now),
            exit_cb=lambda: enter(SEARCHING, sim.now),
            tree=self.tree,
            delta=self.tree.delta,
            size=self.tree.size,
            visit_costs=costs,
            chunk=self.cfg.chunk_size,
            thresh=self._release_threshold,
            limit=self._poll_interval,
            req_slot=self.request[rank] if self.request is not None else None,
            poll=poll,
            pending=pending,
            wa=wa,
            no_work=NO_WORK,
            gate=gate,
            gate_cat=gate._cat if gate is not None else None,
            rank=rank,
            fifo=fifo,
            queue=queue,
            ev_name=fifo._ev_name if fifo is not None else None,
            lock_to=lock_to.delay if lock_to is not None else -1.0,
            barrier_dict=barrier.__dict__ if barrier is not None else None,
            reset_cost=self.net.shared_ref(rank, 0),
            home_occupancy=self.net.home_occupancy,
            task_of=task_of,
            outstanding=outstanding,
            task_nodes=task_nodes,
            drained=drained,
        )

    def _build_c_search(self, rank: int):
        """Bind one ``repro.fastpath._core.SearchPhase`` to this rank's
        probe order, cost bounds, work-avail slots, and poll slot -- or
        None (the generator search runs) when the probe order does not
        state its victims as segments over a ``getrandbits`` stream.

        Each ``cycle()`` is ``shuffled(seg) for seg in segments()``,
        concatenated: the C round shuffles the fresh ``array('i')`` in
        place, draw-for-draw, and probes them in turn; ``slow``
        folds in the per-thread compute multiplier the same way
        ``ctx.compute`` does.  A ``req_slot`` makes the C round-top test
        the request variable and bounce ``True`` for
        :meth:`service_request`.
        """
        from repro.fastpath import load_core
        po = self.probe_orders[rank]
        getrandbits = getattr(po, "getrandbits", None)
        if getrandbits is None or type(po).cycle is not ProbeOrder.cycle:
            return None
        return load_core().SearchPhase(
            sim=self.sim,
            st_dict=self.stats[rank].__dict__,
            segments=po.segments,
            getrandbits=getrandbits,
            bounds=self.net.ref_cost_bounds(rank),
            slots=self._wa_slots,
            req_slot=(self.request[rank] if self.request is not None
                      else None),
            backoff_min=self.cfg.search_backoff_min,
            backoff_factor=self.cfg.search_backoff_factor,
            backoff_max=self.cfg.search_backoff_max,
            slow=self.machine.contexts[rank]._slow,
            persist=self._termination.persist_while_working,
        )

    def _search_fused(self, ctx: UpcContext, phase) -> Generator:
        """Drive the compiled :meth:`search_phase`.

        The C loop probes and backs off; it bounces back here with
        ``True`` when our own poll slot holds a pending thief (the
        victim-side poll at the top of each round) and with the
        victim's rank for every steal attempt.  Both run the unmodified
        Python protocol methods; a successful steal ends the episode
        without re-yielding the phase."""
        res = yield phase
        while res is not None:
            if res is True:
                yield from self.service_request(ctx)
            else:
                self.enter_state(ctx, STEALING)
                ok = yield from self.try_steal(ctx, res)
                self.enter_state(ctx, SEARCHING)
                if ok:
                    phase.abort()
                    return True
            res = yield phase
        return False

    # -- tree exploration (the hot loop) -----------------------------------

    def explore_batch(self, rank: int) -> int:
        """Visit up to ``poll_interval`` nodes from the local region.

        Stops early when the local region is exhausted or grows past the
        release threshold.  Returns the number of nodes visited; the
        caller charges ``n * t_node`` of simulated time.
        """
        stack = self.stacks[rank]
        local = stack.local
        limit = self._poll_interval
        thresh = self._release_threshold
        if self._batch_expand is not None:
            n, pushed = self._batch_expand(local, limit, thresh)
        else:
            children = self.tree.children
            n = 0
            pushed = 0
            while local and n < limit:
                kids = children(local.pop())
                if kids:
                    local.extend(kids)
                    pushed += len(kids)
                n += 1
                if len(local) >= thresh:
                    break
        stack.pops += n
        stack.pushes += pushed
        self.stats[rank].nodes_visited += n
        tr = self.tracer
        if tr.enabled and n:
            tr.emit(self.machine.sim.now, rank, "visit", (n,))
        return n

    # -- run finalization -----------------------------------------------------

    def quiescence_check(self) -> None:
        """Soundness oracle: called by the thread *declaring* global
        termination.  A correct detector only announces when no work
        exists anywhere; this check reads the (simulation-global) state
        at that instant and raises if the declaration is premature --
        turning subtle termination-protocol bugs into loud failures.
        """
        for rank, stack in enumerate(self.stacks):
            if not stack.is_empty:
                raise ProtocolError(
                    f"{self.name}: termination declared while T{rank} "
                    f"holds {stack.total_nodes} unprocessed node(s)"
                )
        if self.in_flight_nodes:
            raise ProtocolError(
                f"{self.name}: termination declared with "
                f"{self.in_flight_nodes} node(s) in flight between stacks"
            )

    def final_reduction(self, ctx: UpcContext) -> Generator:
        """Rank 0 pays the cost of the final count reduction."""
        if ctx.rank == 0:
            cost = reduction_time(self.net, self.machine.n_threads)
            if cost > 0:
                yield Timeout(cost)

    def finalize(self) -> None:
        """Close timers and check conservation invariants."""
        now = self.machine.now
        for st in self.stats:
            st.timer.finish(now)
        for rank, stack in enumerate(self.stacks):
            if not stack.is_empty:
                raise ProtocolError(
                    f"{self.name}: stack of T{rank} non-empty after "
                    f"termination ({stack.total_nodes} node(s) lost in "
                    "protocol)"
                )

    @property
    def total_nodes(self) -> int:
        return sum(st.nodes_visited for st in self.stats)
