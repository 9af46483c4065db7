"""Tie-break policies for schedule-space exploration.

The engine orders its event heap by ``(time, key)``.  The default key
is the monotone sequence number ``seq`` -- FIFO among simultaneous
events, the canonical bit-identical schedule.  A *tie-break policy* is
a callable ``seq -> key`` installed via ``Simulator(tie_break=...)``
that substitutes a different key, reordering events that share a
timestamp while leaving the time axis untouched.  Every legal
reordering produced this way is a schedule a real machine could
exhibit: simultaneous events in the simulation model concurrent
hardware activity with no defined order.

Policies must be injective over ``seq`` (include ``seq`` in the key)
and must return mutually comparable keys for the lifetime of one
simulator.

Two explorers are provided:

* :class:`RandomTieBreak` -- a seeded hash permutes every batch of
  simultaneous events; one integer seed = one reproducible schedule.
* :class:`DelayTieBreak` -- defers a chosen set of events behind all
  their same-timestamp peers; with a single deferred seq this walks
  the neighbourhood of the canonical schedule one bounded reordering
  at a time (the systematic mode CI uses).
"""

from __future__ import annotations

from typing import Iterable, Tuple

__all__ = ["FifoTieBreak", "RandomTieBreak", "DelayTieBreak"]

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(x: int) -> int:
    """SplitMix64 finalizer: a high-quality 64-bit bijection."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


class FifoTieBreak:
    """The identity policy: canonical FIFO order with every key minted
    through a policy call.  Exists for tests proving a policy run
    replays the canonical schedule exactly; passing ``tie_break=None``
    (no call per event, and the compiled loop stays eligible) is
    always preferable in production."""

    def __call__(self, seq: int) -> int:
        return seq


class RandomTieBreak:
    """Seeded pseudo-random permutation of same-timestamp events.

    The key is ``(mix(seed', seq), seq)``: the hash permutes each batch
    of simultaneous events uniformly, and the trailing ``seq`` keeps
    the mapping injective (and deterministic even under the
    astronomically unlikely hash collision).
    """

    __slots__ = ("seed", "_mixed")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._mixed = _mix((seed & _MASK) ^ _GOLDEN)

    def __call__(self, seq: int) -> Tuple[int, int]:
        return (_mix(self._mixed + seq * _GOLDEN), seq)

    def __repr__(self) -> str:
        return f"RandomTieBreak(seed={self.seed})"


class DelayTieBreak:
    """Defer chosen events behind all simultaneous peers.

    Events whose scheduling sequence number is in ``deferred`` sort
    after every non-deferred event with the same timestamp (deferred
    events keep FIFO order among themselves).  ``DelayTieBreak([])``
    is the canonical schedule; ``DelayTieBreak([k])`` for k = 1..N is
    the delay-bound-1 neighbourhood the systematic sweep enumerates.
    """

    #: Added to a deferred seq; far above any reachable sequence number
    #: (the event budget caps runs long before 2**48 scheduled events).
    DEFER = 1 << 48

    __slots__ = ("deferred",)

    def __init__(self, deferred: Iterable[int]) -> None:
        self.deferred = frozenset(deferred)

    def __call__(self, seq: int) -> int:
        return seq + self.DEFER if seq in self.deferred else seq

    def __repr__(self) -> str:
        return f"DelayTieBreak({sorted(self.deferred)})"
