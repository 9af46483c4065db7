"""String-keyed policy registries: the work-stealing plug-in points.

The policy split makes three axes of every algorithm orthogonal,
config-driven plug-ins:

* **steal amount** -- how many chunks a thief takes
  (:data:`STEAL_AMOUNTS`: ``"one"``, ``"half"``, ``"all"``);
* **victim selection** -- whom a searching thread probes
  (:data:`VICTIM_POLICIES`: ``"uniform"``, ``"hierarchical"``);
* **termination detection** -- how global quiescence is declared
  (:data:`TERMINATION_POLICIES`: ``"cancelable-barrier"``,
  ``"streamlined"``, ``"token"``, ``"none"``).

Each registry maps a string key to a factory; :class:`~repro.ws.config.WsConfig`
carries the keys (``steal_policy``, ``victim_policy``,
``termination_policy``) and validates them against the registries, so
an unknown key fails fast with a :class:`~repro.errors.ConfigError`
naming the registered alternatives.  The scenario catalog
(:mod:`repro.scenarios`) composes entire machine/adversary setups out
of these same keys.

Examples
--------

Look up a steal-amount policy and apply it:

>>> from repro.ws.registry import STEAL_AMOUNTS
>>> sorted(STEAL_AMOUNTS.names())
['all', 'half', 'one']
>>> STEAL_AMOUNTS.get("half")(7)
4

Unknown keys fail with the registered alternatives in the message:

>>> STEAL_AMOUNTS.get("most")
Traceback (most recent call last):
    ...
repro.errors.ConfigError: unknown steal-amount policy 'most'; registered: ['all', 'half', 'one']

Victim-policy factories build per-rank probe orders (the ``net``
argument supplies the topology for locality-aware orders):

>>> from repro.net.presets import get_preset
>>> from repro.sim.rng import StreamRng
>>> from repro.ws.registry import VICTIM_POLICIES
>>> order = VICTIM_POLICIES.get("hierarchical")(
...     1, 8, StreamRng(0, "thread", 1), get_preset("kittyhawk"))
>>> sorted(order.cycle())        # kittyhawk: 4 ranks/node
[0, 2, 3, 4, 5, 6, 7]
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, TypeVar

from repro.errors import ConfigError
from repro.ws.policies import (HierarchicalProbeOrder, ProbeOrder, steal_all,
                               steal_half, steal_one)

__all__ = ["PolicyRegistry", "STEAL_AMOUNTS", "VICTIM_POLICIES",
           "TERMINATION_POLICIES", "VARIANT_TRIPLES", "variant_triple"]

T = TypeVar("T")


class PolicyRegistry(Generic[T]):
    """A named map of string keys to policy factories.

    ``kind`` names the axis in error messages ("steal-amount policy",
    "victim policy", ...); :meth:`get` raises
    :class:`~repro.errors.ConfigError` listing :meth:`names` on a miss,
    so every config error is self-documenting.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, T] = {}

    def register(self, key: str, factory: T) -> T:
        """Register ``factory`` under ``key`` (last registration wins,
        so tests and extensions can override built-ins)."""
        if not key or not isinstance(key, str):
            raise ConfigError(f"{self.kind} key must be a non-empty string")
        self._entries[key] = factory
        return factory

    def names(self) -> list:
        """The registered keys (unordered; sort for display)."""
        return list(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> T:
        """The factory under ``key``, or a ConfigError naming every
        registered alternative."""
        try:
            return self._entries[key]
        except KeyError:
            raise ConfigError(
                f"unknown {self.kind} {key!r}; "
                f"registered: {sorted(self._entries)}"
            ) from None

    def validate(self, key: str) -> None:
        """Raise the same ConfigError as :meth:`get` without resolving."""
        if key not in self._entries:
            self.get(key)


#: Steal-amount policies: ``Callable[[int], int]`` mapping the victim's
#: available chunk count (> 0) to chunks taken.
STEAL_AMOUNTS: PolicyRegistry = PolicyRegistry("steal-amount policy")
STEAL_AMOUNTS.register("one", steal_one)
STEAL_AMOUNTS.register("half", steal_half)
STEAL_AMOUNTS.register("all", steal_all)

#: Victim-selection policies: factories
#: ``(rank, n_threads, rng, net) -> ProbeOrder``.  The ``net`` argument
#: is the run's :class:`~repro.net.model.NetworkModel`; uniform orders
#: ignore it, locality-aware orders read the topology from it.
VICTIM_POLICIES: PolicyRegistry = PolicyRegistry("victim policy")
VICTIM_POLICIES.register(
    "uniform", lambda rank, n, rng, net: ProbeOrder(rank, n, rng))
VICTIM_POLICIES.register(
    "hierarchical",
    lambda rank, n, rng, net: HierarchicalProbeOrder(rank, n, rng, net))


def _termination_factory(key: str) -> Callable:
    """Late-bound termination factories (the strategy classes import
    algorithm-adjacent modules; binding at call time avoids a cycle)."""
    def build(algo):
        from repro.ws.termination.strategies import TERMINATION_CLASSES
        return TERMINATION_CLASSES[key](algo)
    return build


#: Termination-detection policies: factories ``(algorithm) -> strategy``.
#: ``"token"`` (mpi-ws) and ``"none"`` (service pool, tree-split) are
#: markers for algorithms whose detection is fused into their own idle
#: loops.
TERMINATION_POLICIES: PolicyRegistry = PolicyRegistry("termination policy")
for _key in ("cancelable-barrier", "streamlined", "token", "none"):
    TERMINATION_POLICIES.register(_key, _termination_factory(_key))
del _key


#: Every variant as its native ``(steal, victim, termination)`` triple
#: -- the registry keys the algorithm resolves when the config leaves
#: all three axes at None.  The consistency test in
#: ``tests/ws/test_registry_gating.py`` checks each triple against the
#: class attributes, so this table cannot drift from the code.
VARIANT_TRIPLES: Dict[str, tuple] = {
    "upc-sharedmem": ("one", "uniform", "cancelable-barrier"),
    "upc-term": ("one", "uniform", "streamlined"),
    "upc-term-rapdif": ("half", "uniform", "streamlined"),
    "upc-distmem": ("half", "uniform", "streamlined"),
    "upc-distmem-hier": ("half", "hierarchical", "streamlined"),
    "mpi-ws": ("one", "uniform", "token"),
    "ws-fencefree": ("one", "uniform", "streamlined"),
    "tree-split": ("one", "uniform", "none"),
}


def variant_triple(name: str) -> tuple:
    """The native ``(steal, victim, termination)`` triple of a variant,
    or a ConfigError naming the registered variants."""
    try:
        return VARIANT_TRIPLES[name]
    except KeyError:
        raise ConfigError(
            f"unknown variant {name!r}; "
            f"registered: {sorted(VARIANT_TRIPLES)}"
        ) from None
