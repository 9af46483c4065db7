"""Tree-splitting load balancer (``tree-split``).

After El-Mahdy & colleagues (arXiv:1710.00122): instead of demand-driven
work *stealing*, threads run bulk-synchronous **rounds** -- everybody
explores its own partition for a bounded number of batches, then meets
at a counted barrier where one thread *splits* the heavy partitions and
hands the halves to the light ones.  There are no victim probes, no
``work_avail`` traffic, and no asynchronous termination protocol: the
rebalance round that finds the whole machine empty *is* the
termination detection (the registry's ``none`` strategy -- detection is
fused into the algorithm's own barrier).

The repartitioning is the recursive-halving step of the paper mapped
onto :class:`~repro.ws.stack.SplitStack` primitives: the richest
thread releases half of its load gap to the poorest as one chunk, and
the pair move is ledgered exactly like a steal (``release`` +
``steal_chunks`` on the source, ``push_many`` on the destination), so
the I1/I2 conservation ledgers hold with no new machinery.  The greedy
loop strictly decreases the sum of squared loads each move, so it
terminates; it stops when the spread is within one chunk.

This variant is the repro's non-work-stealing baseline: E14 compares
it against ``upc-distmem`` to quantify what demand-driven stealing
buys over periodic repartitioning on the same simulated machine.
"""

from __future__ import annotations

from typing import Generator

from repro.metrics.states import BARRIER, WORKING
from repro.pgas.collectives import reduction_time
from repro.sim.engine import SimEvent, Timeout
from repro.ws.algorithms.base import AlgorithmBase, flatten

__all__ = ["TreeSplit"]


class TreeSplit(AlgorithmBase):
    """Bulk-synchronous recursive splitting; no steals, no probes."""

    name = "tree-split"
    #: Detection is the empty rebalance round itself -- the registry's
    #: ``none`` marker strategy (its phase must never be entered).
    termination_policies = ("none",)
    #: Rebalance moves one (variable-size) chunk per pair; the
    #: steal/victim knobs have nothing to vary.
    steal_policies = ("one",)
    victim_policies = ("uniform",)
    #: No locks, no messages, no recovery: only stale-read windows are
    #: meaningful (and inert -- this variant performs no remote reads).
    fault_classes = ("stale",)
    #: Explore batches per thread between barriers.  Small enough that
    #: imbalance cannot run away, large enough that barrier cost
    #: amortizes (the E14 ablation quantifies the trade).
    round_batches = 4
    #: The fusion gate's table: nothing compiled stands in for a round.
    _COMPILED = {"work": "rounds call explore_batch: no Working state"}

    def setup(self) -> None:
        # Work never moves through the shared region outside a
        # rebalance, so the owner must not shed surplus mid-round:
        # disable threshold releases outright.
        self._release_threshold = 1 << 60
        self._round = 0
        self._arrived = 0
        self._done = False
        #: round number -> SimEvent the waiters of that round park on.
        self._round_events: dict = {}

    def thread_main(self, ctx) -> Generator:
        rank = ctx.rank
        stack = self.stacks[rank]
        local = stack.local
        vt = self._visit_timeouts_for(rank)
        explore = self.explore_batch
        while True:
            if local:
                self.enter_state(ctx, WORKING)
                for _ in range(self.round_batches):
                    n = explore(rank)
                    if n and vt is not None:
                        yield vt[n]
                    if not local:
                        break
            done = yield from self._round_barrier(ctx)
            if done:
                break
        yield from self.final_reduction(ctx)

    # -- the rebalance barrier ---------------------------------------------

    def _round_barrier(self, ctx) -> Generator:
        """Counted barrier + rebalance; True on global termination.

        Arrival pays one shared reference to the barrier counter's home
        (rank 0).  The counter itself is simulation-global state: the
        increment is atomic with event registration (no yield between),
        so arrivals cannot be missed.  The *last* arriver performs the
        whole repartition, pays its transfer time, and releases the
        round's waiters.
        """
        rank = ctx.rank
        self.enter_state(ctx, BARRIER)
        st = self.stats[rank]
        st.barrier_entries += 1
        cost = self.net.shared_ref(rank, 0)
        if cost > 0:
            yield from ctx.compute(cost)
        rnd = self._round
        self._arrived += 1
        if self._arrived < self.machine.n_threads:
            ev = self._round_events.setdefault(
                rnd, SimEvent(self.machine.sim, f"tsplit.round{rnd}"))
            yield ev
        else:
            move_cost = self._rebalance(rnd)
            if move_cost > 0:
                yield Timeout(move_cost)
            self._arrived = 0
            self._round = rnd + 1
            ev = self._round_events.pop(rnd, None)
            if ev is not None:
                ev.succeed()
        if self._done:
            return True
        st.barrier_exits += 1
        return False

    def _rebalance(self, rnd: int) -> float:
        """Repartition all loads (no yields; runs atomically at the
        barrier instant).  Returns the simulated transfer time the
        caller must pay before releasing the round.

        Empty machine => termination: the quiescence oracle is invoked
        *before* the announcement emit, so a bookkeeping bug here fails
        loudly under the fuzzer rather than ending a run early.
        """
        stacks = self.stacks
        n = self.machine.n_threads
        loads = [len(s.local) for s in stacks]
        tr = self.tracer
        if sum(loads) == 0:
            self.quiescence_check()
            self._done = True
            if tr.enabled:
                tr.emit(self.machine.sim.now, 0, "tsplit.term", (rnd,))
            return reduction_time(self.net, n)
        chunk = self.cfg.chunk_size
        cost = 0.0
        moves = 0
        moved_nodes = 0
        while True:
            # Highest load wins rich (lowest rank breaks ties); lowest
            # load wins poor.  Deterministic, so the schedule is too.
            rich = max(range(n), key=lambda r: (loads[r], -r))
            poor = min(range(n), key=lambda r: (loads[r], r))
            gap = loads[rich] - loads[poor]
            if gap <= chunk:
                break
            k = gap // 2
            src = stacks[rich]
            dst = stacks[poor]
            # Pair move via the stack primitives, so the per-stack
            # conservation ledgers (I2) see a regular release+steal:
            # the bottom k nodes of the rich partition -- the
            # shallowest, biggest subtrees -- go to the poor one.
            src.release(k)
            nodes = flatten(src.steal_chunks(1))
            dst.push_many(nodes)
            loads[rich] -= k
            loads[poor] += k
            self.stats[rich].releases += 1
            rst = self.stats[poor]
            rst.steal_attempts += 1
            rst.steals_ok += 1
            rst.chunks_stolen += 1
            rst.nodes_stolen += k
            cost += self.net.chunk_transfer(poor, rich, k)
            moves += 1
            moved_nodes += k
        if tr.enabled and moves:
            # Emitted only after every move landed: the invariant
            # monitor scans ledgers at each emit, and a mid-repartition
            # snapshot would be torn.
            tr.emit(self.machine.sim.now, 0, "tsplit.rebalance",
                    (rnd, moves, moved_nodes))
        return cost
