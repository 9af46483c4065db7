"""Deterministic random streams for simulation components.

Every stochastic decision in a run (victim probe orders, jitter) draws
from a named substream derived from the experiment seed, so adding a new
consumer never perturbs existing streams and runs replay bit-identically.
"""

from __future__ import annotations

import random
import zlib

__all__ = ["StreamRng", "substream_seed"]


def substream_seed(root_seed: int, *names: object) -> int:
    """Derive a stable substream seed from a root seed and a name path."""
    tag = ":".join(str(n) for n in names).encode()
    return (root_seed * 0x9E3779B97F4A7C15 + zlib.crc32(tag)) & 0xFFFFFFFFFFFFFFFF


class StreamRng:
    """A named, seeded random stream over one Mersenne Twister.

    The root seed and name path are retained so consumers can
    *re-derive* streams instead of reusing advanced generator state:
    constructing ``StreamRng(root, *names)`` twice yields the same
    sequence from the start, and :meth:`derive` extends the name path
    to mint an independent child stream.  A component that restarts
    (e.g. a recovery path re-creating its victim-order policy) must
    derive a fresh incarnation substream -- resuming the old ``_rng``
    object would make the replay depend on how far the previous
    incarnation had advanced it.

    This class owns the mapping from a draw to generator words:
    :meth:`randrange` is ``random.Random._randbelow_with_getrandbits`` on
    CPython 3.10-3.13, so :meth:`shuffled`, :meth:`randrange` and
    :meth:`choice` return what ``shuffle``/``randrange``/``choice`` of
    a ``random.Random(substream_seed(...))`` return and leave the
    generator in the same state -- at one C call per accepted draw
    instead of three Python frames.  Code that must interleave draws
    with other work (:meth:`repro.ws.policies.ProbeOrder.scan`) applies
    the same rule to :attr:`getrandbits` directly.

    A stream is seeded at its first draw, not at construction: most
    ranks of a large parked machine never draw (445 of 4,096 in the
    ``upc-distmem`` park cell), and a Mersenne Twister is 2.5 KB.  The
    first read of ``_rng``, :attr:`getrandbits` or :attr:`name` lands in
    :meth:`__getattr__`, which fills the slot; every later read is a
    plain slot read, and the draw sequence is the eager one.
    """

    __slots__ = ("root_seed", "_names", "name", "_rng", "getrandbits")

    def __init__(self, root_seed: int, *names: object) -> None:
        self.root_seed = root_seed
        self._names = names

    def __getattr__(self, attr: str):
        # Reached only when a slot is unset: the first read of a lazy one.
        if attr == "name":
            self.name = ":".join(str(n) for n in self._names)
        elif attr in ("_rng", "getrandbits"):
            self._rng = random.Random(substream_seed(self.root_seed,
                                                     *self._names))
            #: ``getrandbits(k)``: the next ``k <= 32`` bits cost one word.
            self.getrandbits = self._rng.getrandbits
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {attr!r}")
        return object.__getattribute__(self, attr)

    def __getstate__(self):
        # A copy shares the generator, seeded or not, as an eager stream's
        # copy does: seed it before the slots are read out.
        return None, {s: getattr(self, s) for s in self.__slots__}

    def derive(self, *names: object) -> "StreamRng":
        """An independent child stream at ``<self.name>:<names...>``.

        Derivation depends only on the root seed and the name path --
        never on this stream's current position -- so a re-created
        component gets a reproducible stream no matter how many draws
        its predecessor made.
        """
        return StreamRng(self.root_seed, *self._names, *names)

    def randrange(self, m: int) -> int:
        """A uniform int in ``[0, m)``: ``m.bit_length()`` bits per
        try, redrawn until below ``m`` (so ``randrange(1)`` draws)."""
        if m < 1:
            raise ValueError(
                f"stream {self.name!r}: randrange({m}) is an empty range")
        getrandbits = self.getrandbits
        k = m.bit_length()
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        return r

    def shuffled(self, items: list) -> list:
        """A shuffled copy: Fisher-Yates from the top with
        :meth:`randrange` inlined (under two items consume no draw)."""
        out = list(items)
        getrandbits = self.getrandbits
        m = len(out)
        while m > 1:
            k = m.bit_length()
            half = 1 << k >> 1  # smallest m with this bit length, >= 2
            while m >= half:
                r = getrandbits(k)
                while r >= m:
                    r = getrandbits(k)
                m -= 1
                out[m], out[r] = out[r], out[m]
        return out

    def uniform(self, lo: float, hi: float) -> float:
        return self._rng.uniform(lo, hi)

    def choice(self, items: list):
        return items[self.randrange(len(items))]
