"""String-keyed policy tables: the work-stealing plug-in points.

The policy split makes three axes of every algorithm orthogonal,
config-driven plug-ins:

* **steal amount** -- how many chunks a thief takes
  (:data:`STEAL_AMOUNTS`: ``"one"``, ``"half"``, ``"all"``);
* **victim selection** -- whom a searching thread probes
  (:data:`VICTIM_POLICIES`: ``"uniform"``, ``"hierarchical"``);
* **termination detection** -- how global quiescence is declared
  (:data:`TERMINATION_POLICIES`: ``"cancelable-barrier"``,
  ``"streamlined"``, ``"token"``, ``"none"``).

Each table is a plain dict from a string key to a factory, and
:func:`lookup` is the one way to resolve a key: an unknown key fails
with a :class:`~repro.errors.ConfigError` naming the registered
alternatives.  :class:`~repro.ws.config.WsConfig` carries the keys
(``steal_policy``, ``victim_policy``, ``termination_policy``) and
looks them up at construction; which keys a variant hosts is its own
``*_policies`` tuples, asked through
:meth:`~repro.ws.algorithms.base.AlgorithmBase.refusal`.  The scenario
catalog (:mod:`repro.scenarios`) composes entire machine/adversary
setups out of these same keys.

Examples
--------

Look up a steal-amount policy and apply it:

>>> from repro.ws.registry import STEAL_AMOUNTS, lookup
>>> sorted(STEAL_AMOUNTS)
['all', 'half', 'one']
>>> lookup("steal", "half")(7)
4

Unknown keys fail with the registered alternatives in the message:

>>> lookup("steal", "most")
Traceback (most recent call last):
    ...
repro.errors.ConfigError: unknown steal-amount policy 'most'; registered: ['all', 'half', 'one']

Victim-policy factories build per-rank probe orders (the ``net``
argument supplies the topology for locality-aware orders):

>>> from repro.net.presets import get_preset
>>> from repro.sim.rng import StreamRng
>>> order = lookup("victim", "hierarchical")(
...     1, 8, StreamRng(0, "thread", 1), get_preset("kittyhawk"))
>>> sorted(order.cycle())        # kittyhawk: 4 ranks/node
[0, 2, 3, 4, 5, 6, 7]
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.errors import ConfigError
from repro.ws.policies import (HierarchicalProbeOrder, ProbeOrder, steal_all,
                               steal_half, steal_one)

__all__ = ["STEAL_AMOUNTS", "VICTIM_POLICIES", "TERMINATION_POLICIES",
           "AXES", "lookup"]

#: Steal-amount policies: ``Callable[[int], int]`` mapping the victim's
#: available chunk count (> 0) to chunks taken.
STEAL_AMOUNTS: Dict[str, Callable] = {
    "one": steal_one, "half": steal_half, "all": steal_all}

#: Victim-selection policies: factories
#: ``(rank, n_threads, rng, net) -> ProbeOrder``.  The ``net`` argument
#: is the run's :class:`~repro.net.model.NetworkModel`; uniform orders
#: ignore it, locality-aware orders read the topology from it.
VICTIM_POLICIES: Dict[str, Callable] = {
    "uniform": lambda rank, n, rng, net: ProbeOrder(rank, n, rng),
    "hierarchical":
        lambda rank, n, rng, net: HierarchicalProbeOrder(rank, n, rng, net),
}


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
TERMINATION_POLICIES: Dict[str, Callable] = {
    key: _termination_factory(key)
    for key in ("cancelable-barrier", "streamlined", "token", "none")}

#: The three axes by the name their ``WsConfig`` field (``<axis>_policy``)
#: and their algorithm tuple (``<axis>_policies``) are spelled with.
AXES: Dict[str, Dict[str, Callable]] = {
    "steal": STEAL_AMOUNTS, "victim": VICTIM_POLICIES,
    "termination": TERMINATION_POLICIES}


def lookup(axis: str, key: str) -> Callable:
    """The factory under ``key`` on ``axis``, or a ConfigError naming
    every registered alternative."""
    table = AXES[axis]
    try:
        return table[key]
    except KeyError:
        kind = "steal-amount" if axis == "steal" else axis
        raise ConfigError(f"unknown {kind} policy {key!r}; "
                          f"registered: {sorted(table)}") from None
