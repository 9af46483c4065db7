"""Adversarial worker actors: hostile ranks injected into a run.

Each adversary is installed onto an algorithm instance at construction
(after every protocol object exists) and perturbs exactly one per-rank
table the algorithms already consult, so the protocol code has no
adversary-specific branches and the invariant monitor (I1-I5) applies
unchanged -- that is the point: a correct protocol must conserve work
and terminate cleanly *regardless* of how individual ranks behave
within the protocol's rules.

Three actor classes (docs/scenarios.md has the catalog entries):

* ``slow`` -- a rank whose node visits cost ``factor`` times the
  baseline (a thermally-throttled or oversubscribed core).  Stresses
  the load-balance path: everyone else must drain the slow rank's
  releases.
* ``greedy`` -- a thief whose steal amount is always *everything
  available* (:func:`repro.ws.policies.steal_all`).  Stresses work
  diffusion: one raid concentrates a victim's surplus on one rank.
* ``dup`` -- a duplicating stealer: every successful steal (UPC) or
  outstanding request (MPI) is immediately followed by a redundant
  duplicate aimed at the same victim.  Stresses the race/denial paths
  that normally fire only under contention.

Spec grammar (used by ``WsConfig.adversaries`` entries, scenario
definitions, and the fuzzer's ``--adversaries`` flag)::

    spec      := clause (";" clause)*
    clause    := kind [":" param] "@" ranks
    ranks     := rank ("," rank)*      # int, or "last" / "mid"

e.g. ``"slow:4@1;greedy@2;dup@last"``.

>>> from repro.scenarios.adversaries import parse_adversaries
>>> parse_adversaries("slow:4@1;greedy@1,2", threads=8)
((1, 'slow:4'), (1, 'greedy'), (2, 'greedy'))
>>> parse_adversaries("dup@last", threads=8)
((7, 'dup'),)
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.errors import ConfigError
from repro.ws.policies import steal_all

__all__ = ["Adversary", "SlowWorker", "GreedyThief", "DuplicatingStealer",
           "ADVERSARIES", "parse_adversary", "parse_adversaries",
           "install_adversaries"]


class Adversary:
    """One hostile actor, bound to a rank at install time."""

    kind = "abstract"
    #: Whether a spec may give the actor a number (``"kind:param"``).
    _takes_param = False

    def install(self, algo, rank: int) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class SlowWorker(Adversary):
    """A rank whose node visits cost ``factor`` times the baseline."""

    kind = "slow"
    _takes_param = True

    def __init__(self, factor: float = 8.0) -> None:
        if not factor > 0:
            raise ConfigError(f"slow factor must be > 0, got {factor!r}")
        self.factor = factor

    def install(self, algo, rank: int) -> None:
        algo._scale_speed(rank, self.factor)


class GreedyThief(Adversary):
    """A thief that always takes every available chunk."""

    kind = "greedy"

    def install(self, algo, rank: int) -> None:
        # mpi-ws ships exactly one chunk per WORK message (as in the
        # reference implementation), so the override is a documented
        # no-op there; its gate refuses a larger WsConfig.steal_policy.
        algo._set_rank_steal(rank, steal_all)


class DuplicatingStealer(Adversary):
    """A thief that immediately re-raids (or double-requests) its
    victim after every steal."""

    kind = "dup"

    def install(self, algo, rank: int) -> None:
        algo._mark_duplicator(rank)


ADVERSARIES = {
    "slow": SlowWorker,
    "greedy": GreedyThief,
    "dup": DuplicatingStealer,
}


def parse_adversary(spec: str) -> Adversary:
    """``"kind"`` or ``"kind:param"`` -> an actor instance.

    >>> parse_adversary("slow:4").factor
    4.0
    >>> parse_adversary("evil")
    Traceback (most recent call last):
        ...
    repro.errors.ConfigError: unknown adversary 'evil'; registered: ['dup', 'greedy', 'slow']
    """
    kind, _, param = spec.partition(":")
    cls = ADVERSARIES.get(kind)
    if cls is None:
        raise ConfigError(
            f"unknown adversary {kind!r}; registered: {sorted(ADVERSARIES)}"
        )
    if not param:
        return cls()
    if not cls._takes_param:
        raise ConfigError(
            f"adversary {kind!r} takes no parameter, got {spec!r}"
        )
    try:
        value = float(param)
    except ValueError:
        raise ConfigError(
            f"adversary parameter must be a number, got {spec!r}"
        ) from None
    if not math.isfinite(value):
        raise ConfigError(
            f"adversary parameter must be a finite number, got {spec!r}"
        )
    return cls(value)


def _parse_rank(token: str, threads: int) -> int:
    if token == "last":
        return threads - 1
    if token == "mid":
        return threads // 2
    try:
        rank = int(token)
    except ValueError:
        raise ConfigError(
            f"adversary rank must be an int, 'last', or 'mid'; got {token!r}"
        ) from None
    if not 0 <= rank < threads:
        raise ConfigError(
            f"adversary rank {rank} out of range for {threads} threads"
        )
    return rank


def parse_adversaries(spec: str, threads: int) -> Tuple[Tuple[int, str], ...]:
    """Parse a full assignment spec into ``((rank, actor_spec), ...)``
    pairs -- the form :class:`~repro.ws.config.WsConfig` carries."""
    assignments = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        actor, sep, ranks = clause.partition("@")
        if not sep or not ranks:
            raise ConfigError(
                f"adversary clause needs '@ranks', got {clause!r}"
            )
        actor = actor.strip()
        parse_adversary(actor)  # validate the actor spec eagerly
        for token in ranks.split(","):
            assignments.append((_parse_rank(token.strip(), threads), actor))
    return tuple(assignments)


def install_adversaries(algo, assignments) -> None:
    """Install ``((rank, spec), ...)`` actors onto a built algorithm."""
    n = algo.machine.n_threads
    for rank, spec in assignments:
        if not 0 <= rank < n:
            raise ConfigError(
                f"adversary rank {rank} out of range for {n} threads"
            )
        parse_adversary(spec).install(algo, rank)
