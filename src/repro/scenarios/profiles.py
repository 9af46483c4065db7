"""Speed profiles: per-rank visit-cost multipliers for heterogeneous
machines.

A profile spec is a string ``"name"`` or ``"name:factor"`` expanded at
run time against the thread count (so one scenario definition covers
every machine size):

* ``"uniform"`` -- all 1.0 (the homogeneous baseline; factor ignored);
* ``"half-slow:F"`` -- ranks in the upper half cost ``F`` times the
  baseline (a machine with one slow socket);
* ``"alternating:F"`` -- odd ranks cost ``F`` (slow hyperthread
  siblings / asymmetric big.LITTLE pairs);
* ``"graded:F"`` -- costs ramp linearly from 1.0 at rank 0 to ``F`` at
  the last rank (progressive thermal throttling).

>>> build_speed_factors("half-slow:4", 4)
(1.0, 1.0, 4.0, 4.0)
>>> build_speed_factors("alternating:2", 4)
(1.0, 2.0, 1.0, 2.0)
>>> build_speed_factors("graded:3", 3)
(1.0, 2.0, 3.0)
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.errors import ConfigError

__all__ = ["SPEED_PROFILES", "build_speed_factors"]


def _uniform(n: int, factor: float) -> Tuple[float, ...]:
    return (1.0,) * n


def _half_slow(n: int, factor: float) -> Tuple[float, ...]:
    return tuple(factor if r >= n / 2 else 1.0 for r in range(n))


def _alternating(n: int, factor: float) -> Tuple[float, ...]:
    return tuple(factor if r % 2 else 1.0 for r in range(n))


def _graded(n: int, factor: float) -> Tuple[float, ...]:
    if n == 1:
        return (1.0,)
    step = (factor - 1.0) / (n - 1)
    return tuple(1.0 + r * step for r in range(n))


SPEED_PROFILES = {
    "uniform": _uniform,
    "half-slow": _half_slow,
    "alternating": _alternating,
    "graded": _graded,
}


def build_speed_factors(spec: str, threads: int) -> Tuple[float, ...]:
    """Expand a profile spec against ``threads`` ranks."""
    name, _, param = spec.partition(":")
    builder = SPEED_PROFILES.get(name)
    if builder is None:
        raise ConfigError(
            f"unknown speed profile {name!r}; "
            f"registered: {sorted(SPEED_PROFILES)}"
        )
    factor = 1.0
    if param:
        try:
            factor = float(param)
        except ValueError:
            raise ConfigError(
                f"speed-profile factor must be a number, got {spec!r}"
            ) from None
        if not (math.isfinite(factor) and factor > 0):
            raise ConfigError(
                f"speed-profile factor must be a finite number > 0, "
                f"got {spec!r}"
            )
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    return builder(threads, factor)
