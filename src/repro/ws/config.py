"""Work-stealing configuration knobs.

The paper's primary tunable is the chunk size ``k`` (Sect. 2, 4.2.1);
the rest are secondary protocol parameters with defaults matching the
reference implementations' behaviour.  The MPI-style polling interval
is a field (ablation X4 varies it); the values the paper fixes --
the ``2k`` release threshold and the search/barrier backoff the
simulation uses in place of hardware spin loops -- are the module
constants below.

Since the policy split, the config also carries the registry-backed
plug-in keys -- ``steal_policy``, ``victim_policy``,
``termination_policy`` -- plus the scenario knobs ``speed_factors``
(heterogeneous per-rank visit costs) and ``adversaries`` (hostile
worker actors).  All of them validate eagerly in ``__post_init__``
against :mod:`repro.ws.registry` / :mod:`repro.scenarios.adversaries`,
so an unknown key fails at construction (and at every
:func:`dataclasses.replace`-based derivation like
:meth:`WsConfig.with_chunk_size`) with a :class:`~repro.errors.ConfigError`
naming the registered alternatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.ws.registry import AXES, lookup

__all__ = ["WsConfig"]

#: Release when the local region holds >= ``RELEASE_FACTOR * k``
#: nodes ("at least 2k in our implementation", Sect. 3.1).
RELEASE_FACTOR = 2
#: Initial backoff between failed full probe cycles while searching.
SEARCH_BACKOFF_MIN = 2e-6
#: Backoff cap while searching.
SEARCH_BACKOFF_MAX = 200e-6
#: Multiplicative backoff growth factor.
SEARCH_BACKOFF_FACTOR = 2.0
#: Poll period bounds for threads waiting inside the termination
#: barrier (they "only inspect one other thread", Sect. 3.3.1).
BARRIER_POLL_MIN = 10e-6
BARRIER_POLL_MAX = 1000e-6


@dataclass(frozen=True)
class WsConfig:
    """Tunables shared by the eight work-stealing variants and service-ws."""

    #: Chunk size ``k``: nodes moved per release/reacquire/steal unit.
    chunk_size: int = 8
    #: Max nodes explored per uninterrupted batch; this is also the
    #: granularity at which a distmem/MPI victim polls for requests.
    poll_interval: int = 32
    #: Override the algorithm's steal-amount policy: a
    #: :data:`repro.ws.registry.STEAL_AMOUNTS` key ("one", "half",
    #: "all") or None to keep each algorithm's native policy.  Lets
    #: ablations isolate rapid diffusion from the other refinements.
    #: mpi-ws ships one chunk per WORK message, as in the reference
    #: implementation, so it hosts ``"one"`` only and refuses the
    #: others at construction (``AlgorithmBase.refusal``).
    steal_policy: Optional[str] = None
    #: Override the algorithm's victim-selection policy: a
    #: :data:`repro.ws.registry.VICTIM_POLICIES` key ("uniform",
    #: "hierarchical") or None for the algorithm's native order
    #: (uniform everywhere except upc-distmem-hier).  "hierarchical"
    #: probes same-node ranks before off-node ranks -- with it,
    #: upc-distmem *is* upc-distmem-hier, schedule-for-schedule.
    victim_policy: Optional[str] = None
    #: Override the algorithm's termination-detection policy: a
    #: :data:`repro.ws.registry.TERMINATION_POLICIES` key
    #: ("cancelable-barrier", "streamlined", "token", "none") or None
    #: for the algorithm's native detector.  Membership is validated
    #: here; each algorithm additionally restricts the keys it can
    #: host (``AlgorithmBase.refusal``) at construction -- e.g. the
    #: lock-free distmem protocol cannot run the cancelable barrier's
    #: release-resets.
    termination_policy: Optional[str] = None
    #: Heterogeneous-machine knob: per-rank node-visit-cost multipliers
    #: (tuple of positive floats, one per thread; length checked at
    #: algorithm construction).  ``None`` (default) keeps the
    #: homogeneous machine and the bit-identical fast path; factor 1.0
    #: ranks cost exactly the baseline.  Built by the scenario speed
    #: profiles (:mod:`repro.scenarios.profiles`).
    speed_factors: Optional[Tuple[float, ...]] = None
    #: Adversarial worker actors: ``((rank, spec), ...)`` where spec is
    #: an :data:`repro.scenarios.adversaries.ADVERSARIES` key with
    #: optional parameter ("slow:8", "greedy", "dup").  Installed onto
    #: the algorithm at construction; None (default) means no actors
    #: and zero overhead.  See docs/scenarios.md.
    adversaries: Optional[Tuple[Tuple[int, str], ...]] = None
    #: What a thread with no work and no steal in progress does between
    #: probe cycles.  ``"poll"`` (default) is the paper-faithful busy
    #: poll: every idle thread keeps a backoff timer in the event queue,
    #: so the engine pays O(threads) events per tick even when only a
    #: handful are working.  ``"park"`` blocks the thread on an
    #: :class:`~repro.ws.idle.IdleGate` event until some thread exposes
    #: surplus, making engine cost O(active) -- required for the
    #: 4096-thread scale runs (E11).  Parking changes the simulated
    #: schedule (fewer probe events, same invariants/results), so the
    #: pinned bit-identical figures all use ``"poll"``.
    idle_strategy: str = "poll"
    #: Deterministic fault-injection plan (:mod:`repro.faults`), or None
    #: for a fault-free run.  With a plan set, the run also activates
    #: the recovery protocols and the conservation checker; without one
    #: every fault hook is a no-op and timing is bit-identical to a
    #: build without the fault layer.
    faults: Optional[FaultPlan] = None
    #: Execution backend (:mod:`repro.fastpath`): ``None``/``"auto"``
    #: use the compiled core when built, ``"pure"`` forces the
    #: pure-Python loops, ``"fast"`` requires the compiled core (error
    #: when unavailable).  Both backends execute bit-identical
    #: schedules; the ``REPRO_FASTPATH`` environment variable overrides
    #: this at run time.
    fastpath: Optional[str] = None

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.poll_interval < 1:
            raise ConfigError("poll_interval must be >= 1")
        # Registry-aware plug-in keys: unknown keys fail here (and thus
        # in every replace()-derived config, e.g. with_chunk_size) with
        # the registered alternatives in the message.
        for axis in AXES:
            key = getattr(self, f"{axis}_policy")
            if key is not None:
                lookup(axis, key)
        if self.speed_factors is not None:
            self._validate_speed_factors()
        if self.adversaries is not None:
            self._validate_adversaries()
        if self.idle_strategy not in ("poll", "park"):
            raise ConfigError(
                f"idle_strategy must be 'poll' or 'park', got "
                f"{self.idle_strategy!r}"
            )
        if self.fastpath is not None and self.fastpath not in (
                "auto", "pure", "fast"):
            raise ConfigError(
                f"fastpath must be auto/pure/fast or None, got "
                f"{self.fastpath!r}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ConfigError(
                f"faults must be a FaultPlan or None, got "
                f"{type(self.faults).__name__}"
            )
        if self.idle_strategy == "park" and self.faults is not None:
            # Fail-stop kills (scheduled or storm-burst) and slow ranks
            # are park-safe: Simulator.interrupt reaches parked
            # processes and IdleGate.on_death keeps the category
            # counters exact.  The message/stall/stale classes perturb
            # protocol state the parked fast path reads without
            # re-validation, so they remain poll-only.
            bad = self.faults.non_failstop_classes
            if bad:
                raise ConfigError(
                    "idle_strategy='park' supports fail-stop faults "
                    f"only; unsupported class(es) here: {', '.join(bad)} "
                    "(use idle_strategy='poll')"
                )

    def _validate_speed_factors(self) -> None:
        factors = self.speed_factors
        if not isinstance(factors, tuple):
            # Accept any sequence at construction; store the canonical
            # (hashable) tuple form.
            try:
                factors = tuple(factors)
            except TypeError:
                raise ConfigError(
                    f"speed_factors must be a sequence of positive "
                    f"numbers, got {type(self.speed_factors).__name__}"
                ) from None
            object.__setattr__(self, "speed_factors", factors)
        for i, f in enumerate(factors):
            if not isinstance(f, (int, float)) or isinstance(f, bool) \
                    or not 0 < f < math.inf:
                raise ConfigError(
                    f"speed_factors[{i}] must be a finite positive number, "
                    f"got {f!r}"
                )

    def _validate_adversaries(self) -> None:
        # Imported lazily: the scenario layer sits above repro.ws and
        # importing it here at module scope would be a cycle.
        from repro.scenarios.adversaries import parse_adversary
        adv = self.adversaries
        if not isinstance(adv, tuple):
            try:
                adv = tuple(tuple(pair) for pair in adv)
            except TypeError:
                raise ConfigError(
                    "adversaries must be a sequence of (rank, spec) "
                    f"pairs, got {type(self.adversaries).__name__}"
                ) from None
            object.__setattr__(self, "adversaries", adv)
        for pair in adv:
            if (not isinstance(pair, tuple) or len(pair) != 2
                    or not isinstance(pair[0], int)
                    or isinstance(pair[0], bool) or pair[0] < 0
                    or not isinstance(pair[1], str)):
                raise ConfigError(
                    "each adversary must be a (rank >= 0, spec str) "
                    f"pair, got {pair!r}"
                )
            parse_adversary(pair[1])  # raises ConfigError on unknown kind

    @property
    def release_threshold(self) -> int:
        return RELEASE_FACTOR * self.chunk_size

    def with_chunk_size(self, k: int) -> "WsConfig":
        """A copy with ``chunk_size=k``.

        Runs the full ``__post_init__`` validation again (``replace``
        re-invokes it), so registry-backed policy keys are re-checked:
        deriving from a config whose policy key has since been
        unregistered -- or constructing with an unknown key -- raises
        :class:`~repro.errors.ConfigError` naming the registered
        alternatives rather than failing deep inside a run.
        """
        return replace(self, chunk_size=k)
