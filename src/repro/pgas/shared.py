"""Shared (PGAS) variables with per-rank affinity.

A :class:`SharedVar` lives in the partitioned global address space with
affinity to one rank (its *home*).  Any rank may read or write it; the
cost charged depends on where the accessor is relative to the home
(see :meth:`repro.net.model.NetworkModel.shared_ref`).  Access from the
home rank is free, mirroring UPC's cast-to-local-pointer idiom.

These objects hold real Python values -- the simulation's shared state
is the actual program state, so protocol bugs surface as wrong answers,
not just wrong timings.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

__all__ = ["SharedVar", "SharedArray"]


class SharedVar:
    """A scalar in the global address space, homed at one rank.

    A *staleable* variable (``stale_host`` set to its machine) supports
    fault-injected visibility windows: a write may leave remote readers
    seeing the previous value for a bounded window, modelling relaxed
    consistency in the protocol-state channel.  The home rank always
    sees its own writes.  Without a fault plan the extra fields are
    inert and every path reduces to the plain read/write below.
    """

    __slots__ = ("name", "home", "value", "writes",
                 "stale_host", "stale_value", "stale_until")

    def __init__(self, name: str, home: int, value: Any = None,
                 stale_host: Any = None) -> None:
        self.name = name
        self.home = home
        self.value = value
        self.writes = 0
        #: The owning Machine when this variable participates in
        #: stale-read fault injection; None otherwise.
        self.stale_host = stale_host
        self.stale_value: Any = None
        self.stale_until = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SharedVar {self.name}@T{self.home} = {self.value!r}>"

    # Raw accessors used by the home rank (free) and by the context's
    # cost-charging generators after the latency has elapsed.
    def peek(self) -> Any:
        return self.value

    def poke(self, value: Any) -> None:
        host = self.stale_host
        if host is not None and host.faults is not None:
            # The fault runtime may capture the outgoing value and open
            # a stale-visibility window over it.
            host.faults.on_staleable_write(self)
        self.writes += 1
        self.value = value

    def remote_read(self, now: float, reader: int) -> Any:
        """Read as seen from ``reader`` at simulated time ``now``.

        Inside an open stale window, non-home readers observe the
        pre-write value; the home rank and post-window readers see the
        truth.  Equals :attr:`value` whenever no window is open.
        """
        if now < self.stale_until and reader != self.home:
            host = self.stale_host
            if host is not None and host.faults is not None:
                host.faults.counters.stale_reads += 1
            return self.stale_value
        return self.value


class SharedArray:
    """An array of shared scalars, one element per rank by default.

    The default affinity is the UPC ``shared [1] T a[THREADS]`` layout:
    element ``i`` is homed at rank ``i`` -- exactly how UTS distributes
    per-thread protocol state (``work_avail``, steal-request slots, ...).
    """

    __slots__ = ("name", "_vars")

    def __init__(self, name: str, length: int, init: Any = None,
                 home_fn: Optional[Callable[[int], int]] = None,
                 stale_host: Any = None) -> None:
        if home_fn is None:
            home_fn = lambda i: i  # noqa: E731 - cyclic layout
        self._vars = [SharedVar(f"{name}[{i}]", home_fn(i), init,
                                stale_host=stale_host)
                      for i in range(length)]
        self.name = name

    def __len__(self) -> int:
        return len(self._vars)

    def __getitem__(self, i: int) -> SharedVar:
        return self._vars[i]

    def __iter__(self) -> Iterator[SharedVar]:
        return iter(self._vars)

    def values(self) -> list:
        return [v.value for v in self._vars]
