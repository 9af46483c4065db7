"""Optional compiled execution backend.

Two hot loops gate every figure in this reproduction: the engine's
event-dispatch loop (`Simulator.run`) and UTS tree expansion.  This
package provides compiled implementations of both as an optional
backend: pure Python stays a first-class fallback, and the compiled
paths are required (and verified in CI) to execute *bit-identical*
schedules.

Components
----------

``_core``
    A C extension: ``run(sim, until)`` (the compiled `Simulator.run`
    loop over the heap, ``queue="auto"`` at every thread count),
    ``batch_expand(...)`` (the materialized-tree DFS inner loop),
    ``expand(...)`` (``uts.materialized.expand``: the sequential search
    that builds those arrays, SHA-1 / SplitMix64 generator inline, for
    binomial trees and service task forests; count-only for a tree
    over the cap),
    ``scan_probe(...)`` (``ProbeScan.probe``, for a park search that
    runs as a generator on this backend), and three fused phase state
    machines behind one phase protocol: ``WorkPhase`` (Figure 1's one
    Working state, taking the switches ``AlgorithmBase.working_phase``
    reads, idle gate included, and a service stream's per-task drain
    ledger), ``SearchPhase`` (polling or gated, over the same scan
    kernel) and ``IdlePhase``;
    bound per rank by ``AlgorithmBase``'s ``_build_c_phase`` /
    ``_build_c_search`` and ``mpi-ws``'s ``_build_c_idle``, where the
    one fusion gate (``AlgorithmBase._fusion_gate``) binds the member,
    and reported as a run's ``fusion``.  Built by ``setup.py
    build_ext``; its absence is never an error.

Selection
---------

``resolve(request)`` maps a backend request to ``"fast"`` or
``"pure"``:

* ``request`` is ``"auto"`` (or None), ``"pure"``, or ``"fast"`` --
  from ``WsConfig.fastpath``, the ``--fastpath`` CLI flag, or the
  ``Simulator(fastpath=...)`` argument.
* The ``REPRO_FASTPATH`` environment variable overrides the request:
  ``0``/``off``/``pure`` force pure Python, ``1``/``on``/``fast``
  force the compiled backend, ``auto``/unset defer to the request.
* An explicit ``"fast"`` (from either source) raises
  :class:`~repro.errors.ConfigError` when the extension is not
  importable; ``"auto"`` silently falls back to pure.
"""

from __future__ import annotations

import importlib
import os
from functools import partial
from typing import Any, Callable, Optional

from repro.errors import ConfigError

__all__ = [
    "available",
    "batch_expander",
    "describe",
    "env_mode",
    "load_core",
    "resolve",
    "why_unavailable",
]

_MODES = ("auto", "pure", "fast")
_ENV_PURE = frozenset(("0", "off", "pure", "no", "false"))
_ENV_FAST = frozenset(("1", "on", "fast", "force", "yes", "true"))

_core_mod: Any = None
_core_error: Optional[str] = None
_core_loaded = False


def _load(force: bool = False) -> Any:
    """Import and configure ``_core`` once; cache the outcome."""
    global _core_mod, _core_error, _core_loaded
    if _core_loaded and not force:
        return _core_mod
    _core_loaded = True
    _core_mod = None
    try:
        core = importlib.import_module("repro.fastpath._core")
    except ImportError as exc:
        _core_error = f"extension not built ({exc})"
        return None
    try:
        from repro.errors import SimulationError  # noqa: PLC0415
        from repro.pgas.locks import GlobalLock  # noqa: PLC0415
        from repro.pgas.shared import SharedVar  # noqa: PLC0415
        from repro.sim.engine import Process, SimEvent, Timeout  # noqa: PLC0415
        from repro.sim.resources import FifoLock  # noqa: PLC0415
        from repro.ws.stack import SplitStack  # noqa: PLC0415
        from repro.ws.termination.cancelable_barrier import (  # noqa: PLC0415
            CANCELLED,
        )

        core.configure(Timeout, SimEvent, Process, FifoLock, GlobalLock,
                       SplitStack, SharedVar, SimulationError, CANCELLED)
    except Exception as exc:  # slot layout changed, etc.: stay pure
        _core_error = f"configure failed ({exc!r})"
        return None
    _core_mod = core
    _core_error = None
    return core


def load_core() -> Any:
    """The configured ``_core`` module, or None when unavailable."""
    return _load()


def available() -> bool:
    """True when the compiled dispatch core can be used."""
    return _load() is not None


def why_unavailable() -> Optional[str]:
    """Human-readable reason the core is unavailable (None when it is)."""
    _load()
    return _core_error


def env_mode() -> Optional[str]:
    """The ``REPRO_FASTPATH`` override: 'pure', 'fast', or None (auto)."""
    raw = os.environ.get("REPRO_FASTPATH")
    if raw is None:
        return None
    value = raw.strip().lower()
    if value in ("", "auto"):
        return None
    if value in _ENV_PURE:
        return "pure"
    if value in _ENV_FAST:
        return "fast"
    raise ConfigError(
        f"REPRO_FASTPATH must be one of 0/1/auto (or pure/fast), got {raw!r}"
    )


def resolve(request: Optional[str] = None) -> str:
    """Resolve a backend request to the backend actually used.

    Returns ``"fast"`` or ``"pure"``.  The environment override wins
    over the request; a *forced* fast (request or env) raises
    :class:`ConfigError` when the extension is unavailable.
    """
    if request is None:
        request = "auto"
    if request not in _MODES:
        raise ConfigError(
            f"fastpath must be one of {'/'.join(_MODES)}, got {request!r}"
        )
    env = env_mode()
    if env is not None:
        request = env
    if request == "pure":
        return "pure"
    if _load() is not None:
        return "fast"
    if request == "fast":
        raise ConfigError(
            f"fastpath backend explicitly requested but unavailable: "
            f"{_core_error}"
        )
    return "pure"


def batch_expander(tree: Any) -> Optional[Callable[[list, int, int], tuple]]:
    """A compiled drop-in for ``MaterializedTree.batch_expand``.

    Returns a ``(local, limit, thresh) -> (visited, pushed)`` callable
    reading the tree's preorder arrays in place, or None when the core
    is unavailable or the tree is not materialized.
    """
    from repro.uts.materialized import MaterializedTree  # noqa: PLC0415

    core = _load()
    if core is None or not isinstance(tree, MaterializedTree):
        return None
    return partial(core.batch_expand, tree, tree.delta, tree.size)


def describe() -> dict:
    """Backend inventory for bench/profile headers."""
    return {
        "core_available": available(),
        "core_unavailable_reason": why_unavailable(),
        "env": os.environ.get("REPRO_FASTPATH"),
        "resolved_auto": resolve("auto"),
    }
