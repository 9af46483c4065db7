"""Deterministic arrival processes for the open-system driver.

Each process is a pure function of one :class:`~repro.sim.rng.StreamRng`
substream: the interarrival-gap generator draws nothing from global
state, so the same ``(seed, spec)`` pair yields bit-identical arrival
timestamps on every run, across event-queue backends, and across
serial/parallel sweeps -- the same substream discipline every other
stochastic component in the repo follows.

Three shapes:

* ``poisson`` -- memoryless arrivals at ``rate`` tasks/second
  (exponential gaps by inversion).
* ``bursty`` -- a two-state MMPP: gaps are exponential at
  ``rate * burst_factor`` (hot) or ``rate / burst_factor`` (cold), and
  the state flips with probability ``p_switch`` after each arrival.
  Models flash crowds; ``rate`` is the geometric mean of the two
  state rates.
* ``diurnal`` -- a sinusoidally modulated Poisson process,
  ``lambda(t) = rate * (1 + depth * sin(2 pi t / period))``, generated
  by thinning against ``rate * (1 + depth)``.  Models a load ramp
  cycling within one run ("day" = ``period`` simulated seconds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ConfigError
from repro.faults.plan import _parse_float
from repro.sim.rng import StreamRng

__all__ = ["ArrivalProcess", "parse_arrival_spec"]

_KINDS = ("poisson", "bursty", "diurnal")
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ArrivalProcess:
    """One run's arrival model (immutable, hashable)."""

    kind: str = "poisson"
    #: Nominal arrival rate, tasks per simulated second.
    rate: float = 1e5
    #: Bursty only: hot-state rate multiplier (cold divides by it).
    burst_factor: float = 8.0
    #: Bursty only: per-arrival probability the state flips.
    p_switch: float = 0.1
    #: Diurnal only: one modulation cycle, simulated seconds.
    period: float = 2e-3
    #: Diurnal only: modulation amplitude in [0, 1).
    depth: float = 0.8

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(
                f"arrival kind {self.kind!r} unknown "
                f"(known: {', '.join(_KINDS)})")
        # NaN fails every range check below; so does infinity where a
        # gap would come out zero or undefined.
        if not 0.0 < self.rate < math.inf:
            raise ConfigError(
                f"arrival rate must be finite and > 0, got {self.rate}")
        if not 1.0 <= self.burst_factor < math.inf:
            raise ConfigError(
                f"burst_factor must be finite and >= 1, "
                f"got {self.burst_factor}")
        if not 0.0 <= self.p_switch <= 1.0:
            raise ConfigError(
                f"p_switch must be in [0, 1], got {self.p_switch}")
        if not 0.0 < self.period < math.inf:
            raise ConfigError(
                f"period must be finite and > 0, got {self.period}")
        if not 0.0 <= self.depth < 1.0:
            raise ConfigError(f"depth must be in [0, 1), got {self.depth}")

    # -- gap generation ------------------------------------------------------

    def gaps(self, rng: StreamRng) -> Iterator[float]:
        """Infinite interarrival-gap stream, driven only by ``rng``."""
        if self.kind == "poisson":
            return self._poisson(rng)
        if self.kind == "bursty":
            return self._bursty(rng)
        return self._diurnal(rng)

    def _poisson(self, rng: StreamRng) -> Iterator[float]:
        rate = self.rate
        while True:
            # uniform(0,1) draws in [0,1), so log(1-u) is finite.
            yield -math.log(1.0 - rng.uniform(0.0, 1.0)) / rate

    def _bursty(self, rng: StreamRng) -> Iterator[float]:
        hot = False
        r_hot = self.rate * self.burst_factor
        r_cold = self.rate / self.burst_factor
        p = self.p_switch
        while True:
            rate = r_hot if hot else r_cold
            yield -math.log(1.0 - rng.uniform(0.0, 1.0)) / rate
            if rng.uniform(0.0, 1.0) < p:
                hot = not hot

    def _diurnal(self, rng: StreamRng) -> Iterator[float]:
        lam_max = self.rate * (1.0 + self.depth)
        t = 0.0
        gap = 0.0
        while True:
            # Thinning: propose at the peak rate, accept at lambda(t).
            step = -math.log(1.0 - rng.uniform(0.0, 1.0)) / lam_max
            t += step
            gap += step
            lam = self.rate * (
                1.0 + self.depth * math.sin(_TWO_PI * t / self.period))
            if rng.uniform(0.0, lam_max) < lam:
                yield gap
                gap = 0.0

    def describe(self) -> str:
        if self.kind == "poisson":
            return f"poisson(rate={self.rate:g}/s)"
        if self.kind == "bursty":
            return (f"bursty(rate={self.rate:g}/s, "
                    f"x{self.burst_factor:g}, p={self.p_switch:g})")
        return (f"diurnal(rate={self.rate:g}/s, period={self.period:g}s, "
                f"depth={self.depth:g})")


def parse_arrival_spec(spec: str) -> ArrivalProcess:
    """Build an :class:`ArrivalProcess` from a compact CLI spec.

    Grammar: ``KIND:key=value,...`` with the usual time-unit suffixes::

        poisson:rate=2e5
        bursty:rate=2e5,burst=8,p=0.1
        diurnal:rate=2e5,period=2ms,depth=0.8

    A bare ``KIND`` uses that kind's defaults.
    """
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    kwargs: dict = {"kind": kind}
    keys = {"rate": "rate", "burst": "burst_factor", "p": "p_switch",
            "period": "period", "depth": "depth"}
    for item in rest.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep or key not in keys:
            raise ConfigError(
                f"arrival spec item {item!r} must be key=value with key "
                f"in {sorted(keys)}")
        kwargs[keys[key]] = _parse_float(key, raw.strip(), "arrival spec")
    return ArrivalProcess(**kwargs)
