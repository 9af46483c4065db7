"""Fence-free work stealing with multiplicity (``ws-fencefree``).

After Castaneda & Pina (arXiv:2008.04424): owner ``put``/``take`` and
thief ``steal`` built entirely from plain shared reads and writes -- no
lock transactions, no fences, no read-modify-write primitives.  The
price of that weak synchronization is *relaxed* steal semantics: a
chunk may occasionally be extracted twice ("multiplicity"), but never
lost.  The simulation keeps an exact ledger of every duplicated
descriptor, so conservation becomes ``visited == expected + dup_work``
and the invariant monitor checks the bounded-multiplicity forms
I1'/I3' instead of the strict single-owner I1/I3.

Protocol state per rank (all plain shared words):

* ``ff_tail[r]`` -- monotone count of chunks rank ``r`` ever released
  into its *era list* (an append-only chunk log; indices are never
  reused).  Written only by the owner, at release time.
* ``ff_head[r]`` -- the claim cursor: the lowest era index of rank
  ``r`` that is still *live* (unclaimed).  Re-advertised by whoever
  moved it -- a thief after a claim, the owner after a reacquire --
  as a plain last-writer-wins store.  (In the original circular-buffer
  protocol the cursor is literally ``h + 1`` because claims are
  contiguous; the era log's cursor is the same quantity phrased as
  min-live.)

A thief reads ``tail`` then ``head``; if ``head < tail`` it claims era
chunk ``head`` and re-advertises the cursor.  All plain stores, no
fences -- so under a ``stale=`` fault plan a remote read may return a
*pre-write* value for a bounded window, and that window IS the
protocol's racy window:

* **exact reads -> exact steals.**  A fresh ``head`` names a live
  index, and a claim that lands on an unclaimed index is provably the
  oldest live chunk (claims are permanent, so any value ``head`` ever
  advertised has everything below it claimed).  Fault-free runs
  therefore never duplicate: ``dup_work == 0`` exactly.
* **stale reads -> bounded duplication.**  A stale ``head`` is an old
  cursor some thief or owner-reacquire already moved past; the claim
  resolves to an already-claimed index and the thief receives a *copy*
  of that era chunk (the multiplicity path, ledgered node-by-node).
  A stale ``tail`` only under-reports (monotone), costing at most a
  spurious failed attempt -- refusal is always safe.

That is why this variant's supported fault catalog is ``("stale",)``:
there are no locks to stall, no messages to drop, and no fail-stop
recovery story -- staleness is the one fault channel the protocol is
*designed* around.

``work_avail`` hints are written *only by the owner* (a thief cannot
update anything without a race), so a searcher may chase a stale
positive hint -- it then finds ``head >= tail`` and fails cleanly.
Termination is the streamlined counted barrier unchanged: hints are
owner-exact at every owner transition, so barrier entry is sound.
"""

from __future__ import annotations

from typing import Generator

from repro.ws.algorithms.base import AlgorithmBase, flatten

__all__ = ["WsFenceFree"]


class WsFenceFree(AlgorithmBase):
    """Read/write-only work stealing; duplication allowed and ledgered."""

    name = "ws-fencefree"
    termination_policies = ("streamlined",)
    #: The claim protocol moves exactly one era index per steal.
    steal_policies = ("one",)
    #: No locks to stall, no messages, no fail-stop recovery: only the
    #: stale-visibility channel the protocol is *designed* around.
    fault_classes = ("stale",)
    multiplicity_relaxed = True

    def setup(self) -> None:
        machine = self.machine
        n = machine.n_threads
        #: Claim cursors (min live era index), re-advertised by thief
        #: claims and owner reacquires as last-writer-wins plain stores.
        self.heads = machine.shared_array("ff_head", init=0, staleable=True)
        #: Owner-side release counts (monotone; == len(era list)).
        self.tails = machine.shared_array("ff_tail", init=0, staleable=True)
        #: Append-only per-rank chunk log; era index = claim identity.
        self._era = [[] for _ in range(n)]
        #: era index -> claimed (permanent once set).
        self._claimed = [[] for _ in range(n)]
        #: Live (unclaimed) era indices, oldest first -- mirrors the
        #: order of ``stack.shared`` exactly.
        self._live = [[] for _ in range(n)]
        #: Relaxed-multiplicity ledger: node -> extra copies allowed
        #: (whole duplicated subtrees), total duplicated work, and the
        #: duplicate-extraction event counts.  The invariant monitor's
        #: I1'/I3' and ``RunResult.verify`` read these.
        self.dup_extra: dict = {}
        self.dup_work = 0
        self.dup_chunks = 0
        self.dup_nodes = 0
        self._dup_unhashable = False

    # -- owner side (lock-free put/take) -----------------------------------

    def _after_move(self, rank: int, releasing: bool) -> None:
        """Switch (d) of :meth:`AlgorithmBase.working_phase` -- all of
        the owner's put/take: plain local-memory stores between the
        stack move and the ``work_avail`` hint, never a lock round trip
        (``tail`` is homed here, so the write is free in the UPC cost
        model).  No compiled phase knows this hook, so the variant
        always runs the generator.

        *put* (release): log the chunk just shared as the next era
        index and bump ``tail``.  *take* (reacquire): mark the newest
        live index claimed -- indices are never reused, so no tail
        decrement -- and re-advertise the cursor; a thief whose claim
        lands on it afterwards duplicates it, the deliberate race.
        """
        if releasing:
            era = self._era[rank]
            idx = len(era)
            era.append(self.stacks[rank].shared[-1])
            self._claimed[rank].append(False)
            self._live[rank].append(idx)
            self.tails[rank].poke(idx + 1)
        else:
            self._claimed[rank][self._live[rank].pop()] = True
            self._advertise_head(rank)

    def _advertise_head(self, rank: int) -> None:
        """Store ``rank``'s current claim cursor (min live era index;
        ``len(era)`` when nothing is live).  Every claim/reacquire
        re-advertises, so fault-free reads are always exact; each poke
        is also a fresh staleable write, so a ``stale=`` plan can serve
        the *previous* cursor for a bounded window -- the racy read
        the duplicate path absorbs.
        """
        live = self._live[rank]
        self.heads[rank].poke(live[0] if live else len(self._era[rank]))

    # -- thief side ---------------------------------------------------------

    def _claim(self, ctx, victim: int) -> Generator:
        """Fence-free claim: read ``tail``/``head``, plain-store
        ``head + 1``, take era chunk ``head`` -- a copy when the index
        was already claimed (multiplicity, ledgered).  Returns True if
        work (original or duplicate) was obtained."""
        rank = ctx.rank
        tr = self.tracer
        sim = self.machine.sim
        head = self.heads[victim]
        tail = self.tails[victim]
        fast = self._fast
        ref = self.net.shared_ref(rank, victim)
        # Two plain remote reads: tail then head.  Under a stale plan
        # either may observe a pre-write value; tail is monotone so a
        # stale tail only under-reports (safe refusal), and a stale
        # head resolves to the duplicate path below.
        if ref > 0:
            yield from ctx.compute(2 * ref)
        now = ctx.now
        t = tail.value if fast else tail.remote_read(now, rank)
        h = head.value if fast else head.remote_read(now, rank)
        if h >= t:
            if tr.enabled:
                tr.emit(sim.now, rank, "steal.fail", (victim, "empty"))
            return False
        # Read -> claim -> resolution happen in one frame (no yield):
        # the *racy window* of the fence-free protocol is modeled
        # entirely by the stale-read machinery above -- a stale ``h``
        # is an old cursor another thief (or the owner's reacquire)
        # already moved past, and lands on the duplicate path below.
        # Fault-free, reads are exact and every claim is too (dup_work
        # stays 0), which pins the relaxation to its cause.
        vstack = self.stacks[victim]
        dup = self._claimed[victim][h]
        if not dup:
            self._claimed[victim][h] = True
            live = self._live[victim]
            # An unclaimed h that ``head`` once advertised is provably
            # the oldest live chunk (claims are permanent), i.e. what
            # steal_chunks(1) removes.  The check is the protocol's
            # correctness theorem; the fuzzer turns any violation into
            # a shrunk reproducer.
            if live[0] != h:
                from repro.errors import ProtocolError
                raise ProtocolError(
                    f"{self.name}: claim resolved to era index {h} but "
                    f"oldest live chunk of T{victim} is {live[0]}"
                )
            del live[0]
            chunks = vstack.steal_chunks(1)
            nodes = flatten(chunks)
        else:
            nodes = list(self._era[victim][h])
            self._account_dup(rank, victim, h, nodes)
        # The claim store: re-advertise the cursor (last-writer-wins).
        self._advertise_head(victim)
        self.in_flight_nodes += len(nodes)
        rt = self.faults_rt
        if rt is not None:
            rt.begin_transfer(rank, nodes)
        # Claim-store latency, paid once the nodes are journaled
        # in-flight (a termination declared in this window must still
        # see them via in_flight_nodes).
        if ref > 0:
            yield from ctx.compute(ref)
        # One-sided transfer of the (possibly duplicated) chunk.  The
        # victim's work_avail is NOT updated -- only the owner writes
        # its own hint, so searchers may chase a stale positive and
        # fail cleanly at the head/tail check above.
        yield from ctx.chunk_get(victim, len(nodes))
        if rt is not None:
            rt.end_transfer(rank)
        self._steal_landed(ctx, victim, nodes, 1, dup)
        return True

    def _account_dup(self, rank: int, victim: int, idx: int, nodes) -> None:
        """Ledger one duplicate extraction *before* any invariant scan
        can observe the copies: the full subtree under each chunk node
        will be re-expanded by the thief, so each subtree descriptor
        gains one extra allowed appearance (I3') and the duplicated
        work total grows by the exact subtree size (I1' / verify)."""
        self.dup_chunks += 1
        self.dup_nodes += len(nodes)
        children = self.tree.children
        extra = self.dup_extra
        work = 0
        stack = list(nodes)
        while stack:
            node = stack.pop()
            work += 1
            if not self._dup_unhashable:
                try:
                    extra[node] = extra.get(node, 0) + 1
                except TypeError:
                    # Custom search space with unhashable descriptors:
                    # the per-node bound is unscannable (the monitor
                    # also gives up its scans); totals still apply.
                    self._dup_unhashable = True
            stack.extend(children(node))
        self.dup_work += work
        tr = self.tracer
        if tr.enabled:
            tr.emit(self.machine.sim.now, rank, "steal.dup",
                    (victim, idx, len(nodes), work))
