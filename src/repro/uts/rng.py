"""Splittable random-stream engines for UTS node generation.

UTS trees are *implicit*: a node's entire subtree is reproducible from
its 20-byte description (the state of a splittable RNG).  Spawning
child ``i`` of a node hashes the parent state with the child index --
the "BRG SHA-1" scheme of the reference UTS implementation.

Two interchangeable engines:

* ``sha1``     -- the spec-faithful scheme via ``hashlib`` (default).
* ``splitmix`` -- a fast 64-bit splittable mix for very large
  simulated runs.  Different trees than sha1, same statistics.

All engines expose ``init(seed)``, ``spawn(state, i)``, ``rand(state)``
where ``rand`` returns a 31-bit non-negative int, matching UTS's
``rng_rand`` contract.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Protocol, Union

from repro.errors import ConfigError

__all__ = ["RngEngine", "Sha1Engine", "SplitmixEngine", "get_engine",
           "RAND_MAX"]

#: ``rng_rand`` range: non-negative 31-bit ints, [0, RAND_MAX].
RAND_MAX = 0x7FFFFFFF

State = Union[bytes, int]

# Child-index suffixes, precomputed for the hot path.
_IDX = [struct.pack(">I", i) for i in range(4096)]


class RngEngine(Protocol):
    """Engine protocol: a splittable stream of deterministic states."""

    name: str

    def init(self, seed: int) -> State: ...

    def spawn(self, state: State, i: int) -> State: ...

    def rand(self, state: State) -> int: ...


class Sha1Engine:
    """BRG-SHA1 scheme over ``hashlib`` (the reference UTS behaviour)."""

    name = "sha1"

    def init(self, seed: int) -> bytes:
        return hashlib.sha1(b"UTS root" + struct.pack(">q", seed)).digest()

    def spawn(self, state: bytes, i: int) -> bytes:
        idx = _IDX[i] if i < 4096 else struct.pack(">I", i)
        return hashlib.sha1(state + idx).digest()

    def rand(self, state: bytes) -> int:
        return int.from_bytes(state[:4], "big") & RAND_MAX


_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_M64 = 0xFFFFFFFFFFFFFFFF


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
    return z ^ (z >> 31)


class SplitmixEngine:
    """Fast splittable engine (SplitMix64 finalizer over 64-bit states).

    Not bit-compatible with the SHA-1 scheme, but statistically
    equivalent for tree shaping; used when simulating trees of tens of
    millions of nodes where SHA-1 would dominate wall-clock time.
    """

    name = "splitmix"

    def init(self, seed: int) -> int:
        return _mix64((seed * _SPLITMIX_GAMMA + 0xABCD) & _M64)

    def spawn(self, state: int, i: int) -> int:
        return _mix64((state + (i + 1) * _SPLITMIX_GAMMA) & _M64)

    def rand(self, state: int) -> int:
        return state >> 33  # top 31 bits


_ENGINES = {
    "sha1": Sha1Engine(),
    "splitmix": SplitmixEngine(),
}


def get_engine(name: str) -> RngEngine:
    """Look up an engine by name."""
    try:
        return _ENGINES[name]
    except KeyError:
        raise ConfigError(
            f"unknown rng engine {name!r}; available: {sorted(_ENGINES)}"
        ) from None
