"""Deterministic fault plans.

A :class:`FaultPlan` is a frozen, hashable description of *what can go
wrong* in one run: message-level faults (drop / duplicate / delay),
timing faults (lock-holder stalls, stale-read windows, thread
slowdown), and fail-stop kills with a fixed schedule.  The plan also
carries the recovery parameters the protocols use to route around those
faults (steal timeouts, token ring timeout, heartbeat period).

Everything is driven by ``seed`` through the plan's own SplitMix64
streams (:mod:`repro.faults.rng`), so an identical ``(config, seed)``
pair reproduces the exact same fault trace -- every failure found by a
sweep is a unit test waiting to be written down.

Plans are attached to runs through :attr:`repro.ws.config.WsConfig.faults`
or the ``--faults``/``--fault-seed`` CLI flags; the spec grammar for the
latter lives in :func:`parse_fault_spec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.errors import ConfigError

__all__ = ["FaultPlan", "StormSpec", "parse_fault_spec"]


#: Fault classes a storm window may burst.  ``kill`` storms carry a
#: victim *count*; the rate classes carry the in-window rate override.
_STORM_CLASSES = ("kill", "drop", "dup", "delay", "stall", "stale")

#: Missed heartbeat epochs before a silent rank is suspected dead.
HEARTBEAT_MISS = 3


@dataclass(frozen=True)
class StormSpec:
    """One windowed fault burst: ``storm(kill:3@t=5ms..6ms)``.

    ``kill`` storms kill ``magnitude`` (an integer count of) extra
    ranks at substream-drawn times inside ``[t0, t1)``; rate-class
    storms (``drop``/``dup``/``delay``/``stall``/``stale``) raise that
    class's rate to ``magnitude`` while the simulated clock is inside
    the window (the base rate applies outside it).
    """

    category: str
    magnitude: float
    t0: float
    t1: float

    def __post_init__(self) -> None:
        if self.category not in _STORM_CLASSES:
            raise ConfigError(
                f"storm class {self.category!r} unknown "
                f"(known: {', '.join(_STORM_CLASSES)})")
        if not self.t1 > self.t0 >= 0.0:
            raise ConfigError(
                f"storm window [{self.t0}, {self.t1}) must be non-empty "
                "and non-negative")
        if self.category == "kill":
            if (not 1 <= self.magnitude < math.inf
                    or self.magnitude != int(self.magnitude)):
                raise ConfigError(
                    f"kill storm count must be a positive integer, "
                    f"got {self.magnitude}")
        elif not 0.0 <= self.magnitude <= 1.0:
            raise ConfigError(
                f"{self.category} storm rate must be in [0, 1], "
                f"got {self.magnitude}")

    @property
    def count(self) -> int:
        """Victim count (kill storms only)."""
        return int(self.magnitude)

    def describe(self) -> str:
        mag = self.count if self.category == "kill" else self.magnitude
        return f"storm({self.category}:{mag}@t={self.t0:g}..{self.t1:g})"


@dataclass(frozen=True)
class FaultPlan:
    """One run's fault model + recovery tuning (immutable, hashable)."""

    #: Seed for the fault layer's own random streams (independent of
    #: the tree seed and the simulation seed).
    seed: int = 0

    # -- message faults (two-sided messaging, i.e. mpi-ws) ------------------
    #: Probability a droppable control message vanishes in flight.
    msg_drop_rate: float = 0.0
    #: Probability a duplicable message is delivered twice.
    msg_dup_rate: float = 0.0
    #: Probability a message's arrival is delayed beyond its transit.
    msg_delay_rate: float = 0.0
    #: Upper bound on the injected extra delay (seconds, uniform).
    msg_delay_max: float = 200e-6

    # -- timing faults ------------------------------------------------------
    #: Probability a lock release stalls while still holding the lock.
    lock_stall_rate: float = 0.0
    #: Stall duration (seconds).
    lock_stall_time: float = 50e-6
    #: Probability a write to a staleable shared variable leaves remote
    #: readers seeing the old value for a window.
    stale_read_rate: float = 0.0
    #: Stale-window duration (seconds).
    stale_read_window: float = 20e-6
    #: Ranks running slow (e.g. a thermally throttled node) and the
    #: common compute-time multiplier applied to them.
    slow_ranks: Tuple[int, ...] = ()
    slow_factor: float = 1.0

    # -- fail-stop faults ---------------------------------------------------
    #: Ranks to kill and the simulated times to kill them at
    #: (parallel tuples).  Rank 0 is the recovery coordinator (it owns
    #: the termination ring/barrier home) and must survive.
    kill_ranks: Tuple[int, ...] = ()
    kill_times: Tuple[float, ...] = ()

    #: Windowed fault bursts (:class:`StormSpec`): correlated failures
    #: clustered in time, e.g. a rack power event killing several ranks
    #: inside one millisecond, or a congestion episode that spikes the
    #: message-drop rate for a window.
    storms: Tuple[StormSpec, ...] = ()

    # -- recovery tuning ----------------------------------------------------
    #: Initial steal-request timeout before a thief retries elsewhere.
    steal_timeout: float = 300e-6
    #: Cap for the exponentially backed-off steal timeout.
    steal_timeout_max: float = 2400e-6
    #: Deterministic jitter fraction applied to each steal-retry
    #: doubling (0 = none, the historical schedule).  A value ``j``
    #: perturbs each doubled timeout by a substream-drawn factor in
    #: ``[1 - j/2, 1 + j/2)`` before the cap, de-synchronising thieves
    #: that timed out together during a fault storm.
    steal_retry_jitter: float = 0.0
    #: Rank 0 relaunches the termination token after this ring silence.
    ring_timeout: float = 1500e-6
    #: Heartbeat epoch period for the failure detector.
    heartbeat_period: float = 50e-6
    #: Period of the in-simulation conservation-ledger checker.
    check_period: float = 100e-6

    def __post_init__(self) -> None:
        # Every range check is written so that NaN fails it.
        for name in ("msg_drop_rate", "msg_dup_rate", "msg_delay_rate",
                     "lock_stall_rate", "stale_read_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        for name in ("msg_delay_max", "lock_stall_time", "stale_read_window"):
            if not getattr(self, name) >= 0.0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("steal_timeout", "ring_timeout", "heartbeat_period",
                     "check_period"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be > 0")
        if not self.steal_timeout_max >= self.steal_timeout:
            raise ConfigError("steal_timeout_max must be >= steal_timeout")
        if not self.slow_factor >= 1.0:
            raise ConfigError(
                f"slow_factor must be >= 1 (a slowdown), got {self.slow_factor}")
        if len(self.kill_ranks) != len(self.kill_times):
            raise ConfigError(
                f"kill_ranks ({len(self.kill_ranks)}) and kill_times "
                f"({len(self.kill_times)}) must pair up")
        if len(set(self.kill_ranks)) != len(self.kill_ranks):
            raise ConfigError(f"duplicate rank in kill_ranks {self.kill_ranks}")
        for rank in self.kill_ranks + self.slow_ranks:
            if rank < 0:
                raise ConfigError(f"negative rank {rank} in fault plan")
        if 0 in self.kill_ranks:
            raise ConfigError(
                "rank 0 cannot be killed: it initiates termination "
                "(token ring / barrier home) and coordinates recovery")
        for t in self.kill_times:
            if not t >= 0.0:
                raise ConfigError(f"negative kill time {t}")
        if not 0.0 <= self.steal_retry_jitter <= 1.0:
            raise ConfigError(
                f"steal_retry_jitter must be in [0, 1], "
                f"got {self.steal_retry_jitter}")
        for storm in self.storms:
            if not isinstance(storm, StormSpec):
                raise ConfigError(f"storms must hold StormSpec, got {storm!r}")

    # -- derived -------------------------------------------------------------

    @property
    def has_message_faults(self) -> bool:
        return (self.msg_drop_rate > 0 or self.msg_dup_rate > 0
                or self.msg_delay_rate > 0)

    @property
    def has_kills(self) -> bool:
        return bool(self.kill_ranks) or any(
            s.category == "kill" for s in self.storms)

    @property
    def non_failstop_classes(self) -> Tuple[str, ...]:
        """Fault classes in this plan beyond fail-stop + slowdown.

        The parked idle path (``idle_strategy='park'``) supports
        fail-stop kills (scheduled or storm-burst) and slow ranks; the
        message/stall/stale classes perturb protocol state the parked
        fast path reads without re-validation, so they stay poll-only.
        """
        out = []
        if self.msg_drop_rate > 0:
            out.append("drop")
        if self.msg_dup_rate > 0:
            out.append("dup")
        if self.msg_delay_rate > 0:
            out.append("delay")
        if self.lock_stall_rate > 0:
            out.append("stall")
        if self.stale_read_rate > 0:
            out.append("stale")
        for s in self.storms:
            if s.category != "kill" and s.category not in out:
                out.append(s.category)
        return tuple(out)

    @property
    def fault_classes(self) -> Tuple[str, ...]:
        """Every fault class this plan can inject (spec-key names).

        The non-fail-stop classes plus ``kill`` (scheduled or
        storm-burst) and ``slow`` (throttled ranks).  Algorithms
        declare the classes they tolerate (``fault_classes`` class
        attribute on :class:`~repro.ws.algorithms.base.AlgorithmBase`),
        and its ``refusal`` -- which construction raises and every grid
        asks before it runs a (variant, plan) cell -- reads this
        property, so both layers agree on what a plan contains.
        """
        out = list(self.non_failstop_classes)
        if self.has_kills:
            out.append("kill")
        if self.slow_ranks:
            out.append("slow")
        return tuple(out)

    @property
    def suspect_after(self) -> float:
        """Silence needed before the failure detector suspects a rank."""
        return self.heartbeat_period * HEARTBEAT_MISS

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)


# -- CLI spec grammar ---------------------------------------------------------

_RATE_KEYS = {
    "drop": "msg_drop_rate",
    "dup": "msg_dup_rate",
    "delay": "msg_delay_rate",
    "stall": "lock_stall_rate",
    "stale": "stale_read_rate",
}
_TIME_KEYS = {
    "delay-max": "msg_delay_max",
    "stall-time": "lock_stall_time",
    "stale-window": "stale_read_window",
    "timeout": "steal_timeout",
    "timeout-max": "steal_timeout_max",
    "ring-timeout": "ring_timeout",
    "heartbeat": "heartbeat_period",
}


#: Unit suffixes accepted on time values (``kill=3@2ms``, ``timeout=500us``).
_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}


def _parse_float(key: str, raw: str, grammar: str = "fault spec") -> float:
    scale = 1.0
    text = raw
    for suffix in ("ns", "us", "ms", "s"):
        if text.endswith(suffix):
            head = text[: -len(suffix)]
            # Don't strip the exponent 's'... there is none; but guard
            # against bare units and scientific notation like '2e-6'.
            if head and not head.endswith(("e", "E", "+", "-")):
                scale = _UNITS[suffix]
                text = head
            break
    try:
        value = float(text) * scale
    except ValueError:
        raise ConfigError(f"{grammar}: {key}={raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{grammar}: {key}={raw!r} is not a finite number")
    return value


def _parse_storm(item: str) -> StormSpec:
    """Parse ``storm(CLASS:MAG@T0..T1)`` (``t=`` before T0 optional)."""
    body = item[len("storm("):]
    if not body.endswith(")"):
        raise ConfigError(f"fault spec: unterminated storm item {item!r}")
    body = body[:-1]
    cat, sep, rest = body.partition(":")
    if not sep:
        raise ConfigError(
            f"fault spec: storm {item!r} must be "
            "storm(CLASS:MAGNITUDE@T0..T1), e.g. storm(kill:3@t=5ms..6ms)")
    mag_s, sep, window = rest.partition("@")
    if not sep:
        raise ConfigError(
            f"fault spec: storm {item!r} is missing its @T0..T1 window")
    window = window.strip()
    if window.startswith("t="):
        window = window[2:]
    t0_s, sep, t1_s = window.partition("..")
    if not sep:
        raise ConfigError(
            f"fault spec: storm window {window!r} must be T0..T1")
    return StormSpec(category=cat.strip(),
                     magnitude=_parse_float("storm", mag_s.strip()),
                     t0=_parse_float("storm", t0_s.strip()),
                     t1=_parse_float("storm", t1_s.strip()))


def _parse_at(key: str, raw: str) -> Tuple[int, float]:
    """Parse ``RANK@VALUE`` (kill=3@0.002, slow=2@4)."""
    rank_s, sep, val_s = raw.partition("@")
    if not sep:
        raise ConfigError(
            f"fault spec: {key}={raw!r} must be RANK@VALUE (e.g. {key}=3@0.002)")
    try:
        rank = int(rank_s)
    except ValueError:
        raise ConfigError(
            f"fault spec: {key} rank {rank_s!r} is not an integer") from None
    return rank, _parse_float(key, val_s)


def parse_fault_spec(spec: str, seed: int = 0) -> FaultPlan:
    """Build a :class:`FaultPlan` from a compact CLI spec.

    Grammar: comma-separated ``key=value`` items, e.g.::

        drop=0.05,dup=0.02,delay=0.1
        kill=3@0.002,kill=5@0.004
        stall=0.05,stall-time=100e-6,slow=2@4
        storm(kill:3@t=5ms..6ms),storm(drop:0.3@2ms..3ms)

    Keys: ``drop``/``dup``/``delay``/``stall``/``stale`` (rates),
    ``delay-max``/``stall-time``/``stale-window``/``timeout``/
    ``timeout-max``/``ring-timeout``/``heartbeat`` (seconds),
    ``retry-jitter`` (fraction in [0, 1]), ``kill=RANK@TIME`` and
    ``slow=RANK@FACTOR`` (repeatable), and
    ``storm(CLASS:MAGNITUDE@T0..T1)`` windowed bursts (repeatable;
    ``kill`` takes a victim count, rate classes take the in-window
    rate; the ``t=`` prefix before T0 is optional).
    """
    kwargs: dict = {"seed": seed}
    kills: list = []
    slows: list = []
    storms: list = []
    slow_factor: Optional[float] = None
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if item.startswith("storm("):
            storms.append(_parse_storm(item))
            continue
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"fault spec item {item!r} is not key=value")
        key = key.strip()
        raw = raw.strip()
        if key in _RATE_KEYS:
            kwargs[_RATE_KEYS[key]] = _parse_float(key, raw)
        elif key in _TIME_KEYS:
            kwargs[_TIME_KEYS[key]] = _parse_float(key, raw)
        elif key == "retry-jitter":
            kwargs["steal_retry_jitter"] = _parse_float(key, raw)
        elif key == "kill":
            kills.append(_parse_at(key, raw))
        elif key == "slow":
            rank, factor = _parse_at(key, raw)
            slows.append(rank)
            if slow_factor is not None and factor != slow_factor:
                raise ConfigError(
                    "fault spec: all slow= items must share one factor")
            slow_factor = factor
        else:
            known = sorted([*_RATE_KEYS, *_TIME_KEYS, "kill", "slow",
                            "retry-jitter", "storm(...)"])
            raise ConfigError(
                f"fault spec: unknown key {key!r} (known: {', '.join(known)})")
    if kills:
        kwargs["kill_ranks"] = tuple(r for r, _ in kills)
        kwargs["kill_times"] = tuple(t for _, t in kills)
    if slows:
        kwargs["slow_ranks"] = tuple(slows)
        kwargs["slow_factor"] = slow_factor
    if storms:
        kwargs["storms"] = tuple(storms)
    return FaultPlan(**kwargs)
