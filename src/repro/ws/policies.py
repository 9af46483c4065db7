"""Victim-selection and steal-amount policies.

Two axes the paper varies:

* *How much to steal* -- one chunk (shared-memory algorithm and the MPI
  baseline) vs. half the victim's available chunks ("rapid diffusion",
  Sect. 3.3.2).
* *Whom to probe* -- a pseudo-random probe order over the other threads
  (Sect. 3.1, "a pseudo-random probe order is used to examine other
  threads' stacks").
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import Callable, List

from repro.sim.rng import StreamRng

__all__ = ["steal_one", "steal_half", "steal_all", "StealAmount",
           "ProbeOrder", "ProbeScan", "HierarchicalProbeOrder"]

#: Maps the victim's available chunk count (>0) to chunks to take.
StealAmount = Callable[[int], int]


def steal_one(available_chunks: int) -> int:
    """Always take a single chunk (Sect. 3.1 / mpi-ws behaviour)."""
    if available_chunks < 1:
        raise ValueError("steal amount queried with no chunks available")
    return 1


def steal_half(available_chunks: int) -> int:
    """Take half the chunks when more than one is available (Sect. 3.3.2)."""
    if available_chunks < 1:
        raise ValueError("steal amount queried with no chunks available")
    if available_chunks == 1:
        return 1
    return (available_chunks + 1) // 2


def steal_all(available_chunks: int) -> int:
    """Take every available chunk.

    No variant in the paper does this -- it is the *greedy thief*
    adversary's policy (see :mod:`repro.scenarios.adversaries`): work
    conservation still holds (the chunks land on the thief's stack),
    but one steal drains the victim's entire shared region, starving
    the other probers and concentrating load.
    """
    if available_chunks < 1:
        raise ValueError("steal amount queried with no chunks available")
    return available_chunks


@lru_cache(maxsize=8)
def _ranks(n_threads: int) -> array:
    """``0 .. n_threads-1``, shared by every rank of a machine (never
    written): a segment is a slice of it, a memcpy of 4-byte ints."""
    return array("i", range(n_threads))


class ProbeOrder:
    """Pseudo-random victim orders for one thread.

    A fresh shuffled permutation of the other ranks per probe cycle,
    drawn from the thread's deterministic stream.

    The victims are stated once, as :meth:`segments` -- ``array('i')``
    runs that are shuffled independently and probed one after the
    other -- and read two ways: :meth:`cycle` shuffles them whole (the
    polling search, which probes everyone), :meth:`scan` shuffles them
    a position at a time (the parked search, which stops at its first
    steal).  A subclass changes the order by overriding
    :meth:`segments`, never the readers.

    No per-rank victim list is stored: across a machine that would be
    O(n^2) small-int objects -- hundreds of MB at 4096 threads -- for
    data that is pure ``range`` arithmetic.  :meth:`segments` cuts its
    (transient) arrays per call from one cached ``array('i',
    range(n))``, 4 bytes a victim in an object the collector never
    walks, and :meth:`one` maps a single ``randrange`` draw over the gap
    at our own rank.  Both consume the RNG identically to the
    stored-list implementation, so every schedule is bit-identical.
    """

    __slots__ = ("_rank", "_n", "_rng")

    def __init__(self, rank: int, n_threads: int, rng: StreamRng) -> None:
        self._rank = rank
        self._n = n_threads
        self._rng = rng

    def others(self) -> array:
        """The other ranks in increasing order (fresh array per call)."""
        others = _ranks(self._n)[:]
        del others[self._rank]
        return others

    def segments(self) -> List[array]:
        """The victims of one probe cycle, as fresh ``array('i')`` the
        caller may reorder: every victim of a segment is probed before
        any of the next."""
        return [self.others()]

    @property
    def getrandbits(self):
        """The stream's word source, for a reader that shuffles
        :meth:`segments` natively (None if the stream has none)."""
        return getattr(self._rng, "getrandbits", None)

    def cycle(self) -> List[int]:
        """A new shuffled probe order: each segment shuffled, in turn."""
        shuffled = self._rng.shuffled
        order: List[int] = []
        for seg in self.segments():
            order += shuffled(seg)
        return order

    def scan(self) -> "ProbeScan":
        """A new probe cycle that draws per probe (park scans only).

        The full scan is a uniform permutation per segment like
        :meth:`cycle`, but the draw sequence differs (Fisher-Yates from
        the bottom, so that stopping early leaves the rest undrawn).
        """
        return ProbeScan(self._rng, self.segments())

    def one(self) -> int:
        """A single random victim (used inside the termination barrier).

        ``random.choice(seq)`` is ``seq[_randbelow(len(seq))]`` and
        ``randrange(n)`` is ``_randbelow(n)``: one draw, same value,
        and mapping the index over the gap at our own rank reproduces
        ``others()[i]`` without building the list.
        """
        i = self._rng.randrange(self._n - 1)
        return i if i < self._rank else i + 1


class ProbeScan:
    """One lazy probe cycle: the fused victim-scan kernel.

    A park-mode scan stops at the first successful steal, or when the
    gate's surplus count hits zero; shuffling all ``n - 1`` ranks up
    front made every scan O(n) in host RNG draws -- the dominant cost
    at 1024+ threads.  Here a position of a segment is fixed by one
    draw the moment it is probed (incremental Fisher-Yates: position
    ``i`` swaps with ``i + randrange(len - i)``), and the draw, the
    reference cost and the ``work_avail`` test of a probe share one
    loop body: no generator resume and no Python frame per probe, one
    ``getrandbits`` call per accepted draw (the
    :meth:`StreamRng.randrange <repro.sim.rng.StreamRng.randrange>`
    rule, with the bit length recomputed only when the remaining count
    crosses a power of two).

    The segment is held *reversed*, so the ``m`` victims still to probe
    are ``items[:m]`` and position ``i`` is ``items[m - 1]``: the same
    swaps on the same draws, with one counter to maintain, not two.
    Segments are :meth:`ProbeOrder.segments`' ``array('i')``: a live
    scan holds 4 bytes a victim, and nothing the collector walks.

    On the compiled backend :meth:`probe` runs as ``_core.scan_probe``,
    which swaps in the arrays' buffers in place.
    """

    __slots__ = ("_rng", "_todo", "_items", "_m")

    def __init__(self, rng: StreamRng, segments: List[array]) -> None:
        self._rng = rng
        self._todo = segments[::-1]
        self._items = array("i")
        self._m = 0

    def probe(self, slots, bounds) -> tuple:
        """Probe on from where the last call stopped, up to and
        including the first victim whose ``slots[victim].value`` is
        positive.

        Returns ``(victim, cost_acc, n_probes)`` -- ``victim`` None
        once every segment is exhausted.  ``bounds`` is the prober's
        :meth:`~repro.net.model.NetworkModel.ref_cost_bounds`;
        ``cost_acc`` adds one reference cost per probe, left to right
        from 0.0 (simulated time is pinned to the last bit, so neither
        ``sum()`` nor ``count * cost`` may stand in for it).
        """
        node_lo, node_hi, c_local, c_remote = bounds
        getrandbits = self._rng.getrandbits
        todo = self._todo
        items = self._items
        m = self._m
        cost_acc = 0.0
        n_probes = m
        while True:
            while m:
                k = m.bit_length()
                half = 1 << k >> 1  # smallest m with this bit length
                while m >= half:
                    r = getrandbits(k)
                    while r >= m:
                        r = getrandbits(k)
                    m -= 1
                    j = m - r
                    victim = items[j]
                    items[j] = items[m]
                    cost_acc += (c_local if node_lo <= victim < node_hi
                                 else c_remote)
                    if slots[victim].value > 0:
                        self._m = m
                        return victim, cost_acc, n_probes - m
            if not todo:
                self._m = m
                return None, cost_acc, n_probes
            items = self._items = todo.pop()
            items.reverse()
            m = len(items)
            n_probes += m

    def abandon(self) -> None:
        """Leave the cycle after a failed steal, consuming the draw of
        the next position (if one remains) without probing it.

        The pinned schedules were drawn by a generator that fixed a
        position *before* its consumer could decide to stop, so the
        stream has to end up one draw further on here too.
        """
        m = self._m
        todo = self._todo
        while not m and todo:
            m = len(todo.pop())
        if m:
            self._rng.randrange(m)


class HierarchicalProbeOrder(ProbeOrder):
    """Locality-aware probe order (the paper's Sect. 6.2 future work).

    "One way we may decrease the latency of probing for work and
    stealing in large clusters of shared memory multiprocessor nodes is
    to first try to steal work within a cluster node before probing
    off-node" -- implemented here with the cost model's topology playing
    the role of ``bupc_thread_distance()``: every cycle probes the
    same-node ranks (cheap references) before the off-node ranks.
    """

    __slots__ = ("_lo", "_hi")

    def __init__(self, rank: int, n_threads: int, rng: StreamRng,
                 net) -> None:
        super().__init__(rank, n_threads, rng)
        # A node is a rank range (``rank // cores_per_node`` names
        # it), so, as in the base class, its two ends are
        # all that is stored: per-rank victim lists made construction
        # quadratic in the thread count.
        lo, hi = net.ref_cost_bounds(rank)[:2]
        self._lo = lo
        self._hi = min(hi, n_threads)

    def segments(self) -> List[array]:
        """On-node victims first, then off-node."""
        ranks = _ranks(self._n)
        on_node = ranks[self._lo:self._hi]
        del on_node[self._rank - self._lo]
        return [on_node, ranks[:self._lo] + ranks[self._hi:]]

    def one(self) -> int:
        """Prefer an on-node victim half the time (if any exist).  The
        draws are those of ``choice`` over the on-node list and over
        :meth:`others`: one index each, mapped over the gap at our own
        rank."""
        on_node = self._hi - self._lo - 1
        if on_node and self._rng.uniform(0.0, 1.0) < 0.5:
            i = self._lo + self._rng.randrange(on_node)
            return i if i < self._rank else i + 1
        return super().one()
