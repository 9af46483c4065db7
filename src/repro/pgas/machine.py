"""The simulated PGAS machine and per-thread execution context.

:class:`Machine` owns the simulator, the network cost model, and the
global-address-space objects.  :class:`UpcContext` is what algorithm
code programs against: it exposes UPC-flavoured operations
(``shared_read``, ``shared_write``, ``memget``, ``lock``/``unlock``,
``compute``) as generators that charge simulated time, so algorithm
bodies compose them with ``yield from``.

SPMD idiom::

    machine = Machine(threads=16, net=KITTYHAWK, seed=0)
    machine.spawn_all(lambda ctx: my_thread_main(ctx))
    machine.run()
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.errors import ConfigError
from repro.net.model import NetworkModel
from repro.obs.sink import TraceSink
from repro.pgas.locks import GlobalLock
from repro.pgas.shared import SharedArray, SharedVar
from repro.sim.engine import Process, SimEvent, Simulator, Timeout
from repro.sim.rng import StreamRng

__all__ = ["Machine", "UpcContext"]

Gen = Generator[Any, Any, Any]


class Machine:
    """A simulated cluster running ``threads`` UPC threads."""

    def __init__(self, threads: int, net: NetworkModel, seed: int = 0,
                 tracer: Optional[TraceSink] = None,
                 max_events: int = 50_000_000,
                 tie_break: Optional[Callable[[int], Any]] = None,
                 queue: str = "auto",
                 fastpath: Optional[str] = None) -> None:
        if threads < 1:
            raise ConfigError(f"threads must be >= 1, got {threads}")
        self.n_threads = threads
        self.net = net
        self.seed = seed
        self.sim = Simulator(max_events=max_events, tie_break=tie_break,
                             queue=queue, fastpath=fastpath)
        self.tracer = (tracer if tracer is not None
                       else TraceSink(enabled=False))
        # Engine-level hook: lets Simulator.interrupt record fail-stops
        # into the same trace stream (no-op when tracing is off).
        self.sim.tracer = self.tracer
        self.contexts = [UpcContext(self, rank) for rank in range(threads)]
        self._procs: list[Process] = []
        #: Fault-injection runtime (:class:`repro.faults.runtime.FaultRuntime`)
        #: or None on fault-free runs; every hook site tests this once.
        self.faults = None
        #: All global locks ever allocated, so the fault layer can free
        #: one whose holder fail-stops.
        self._locks: list[GlobalLock] = []

    # -- global address space constructors --------------------------------

    def shared_var(self, name: str, home: int = 0, init: Any = None) -> SharedVar:
        return SharedVar(name, home, init)

    def shared_array(self, name: str, init: Any = None,
                     length: Optional[int] = None,
                     staleable: bool = False) -> SharedArray:
        """``staleable=True`` opts the array into stale-read fault
        injection (protocol-state channels like ``work_avail``)."""
        return SharedArray(name, length or self.n_threads, init=init,
                           stale_host=self if staleable else None)

    def global_lock(self, name: str, home: int = 0) -> GlobalLock:
        lk = GlobalLock(self.sim, name, home)
        self._locks.append(lk)
        return lk

    def lock_array(self, name: str) -> list[GlobalLock]:
        """One lock per rank, homed at that rank (``upc_all_lock_alloc``)."""
        locks = [GlobalLock(self.sim, f"{name}[{i}]", i)
                 for i in range(self.n_threads)]
        self._locks.extend(locks)
        return locks

    # -- execution ---------------------------------------------------------

    def spawn_all(self, thread_main: Callable[["UpcContext"], Gen]) -> None:
        """Start one process per rank running ``thread_main(ctx)``."""
        for ctx in self.contexts:
            self._procs.append(
                self.sim.spawn(thread_main(ctx), name=f"T{ctx.rank}")
            )

    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation; returns the final simulated time."""
        t = self.sim.run(until=until)
        self.sim.check_quiescent()
        return t

    @property
    def now(self) -> float:
        return self.sim.now


class UpcContext:
    """Per-rank view of the machine (MYTHREAD, costs, RNG, trace)."""

    __slots__ = ("machine", "rank", "sim", "net", "rng", "_slow")

    def __init__(self, machine: Machine, rank: int) -> None:
        self.machine = machine
        self.rank = rank
        self.sim = machine.sim
        self.net = machine.net
        self.rng = StreamRng(machine.seed, "thread", rank)
        #: Compute-time multiplier; >1.0 only under a slowdown fault
        #: (``dt * 1.0 == dt`` exactly in IEEE-754, so the fault-free
        #: path is bit-identical).
        self._slow = 1.0

    # -- convenience -------------------------------------------------------

    @property
    def threads(self) -> int:
        return self.machine.n_threads

    @property
    def now(self) -> float:
        return self.sim.now

    def trace(self, kind: str, fields: tuple = ()) -> None:
        tr = self.machine.tracer
        if tr.enabled:
            tr.emit(self.sim.now, self.rank, kind, fields)

    # -- cost-charging operations (generators; use with ``yield from``) ----

    def compute(self, dt: float) -> Gen:
        """Spend ``dt`` seconds of local computation."""
        if dt > 0:
            yield Timeout(dt * self._slow)

    def shared_read(self, var: SharedVar) -> Gen:
        """Read a shared variable; value observed *after* the latency."""
        cost = self.net.shared_ref(self.rank, var.home)
        if cost > 0:
            yield Timeout(cost)
        if var.stale_host is not None:
            # Staleable protocol state: may observe a pre-write value
            # inside a fault-injected visibility window.
            return var.remote_read(self.sim.now, self.rank)
        return var.peek()

    def shared_write(self, var: SharedVar, value: Any) -> Gen:
        """Write a shared variable; value lands after the latency."""
        cost = self.net.shared_ref(self.rank, var.home)
        if cost > 0:
            yield Timeout(cost)
        var.poke(value)

    def local_read(self, var: SharedVar) -> Any:
        """Free access to a variable homed here (cast-to-local idiom)."""
        assert var.home == self.rank, f"T{self.rank} local_read of {var!r}"
        return var.peek()

    def local_write(self, var: SharedVar, value: Any) -> None:
        assert var.home == self.rank, f"T{self.rank} local_write of {var!r}"
        var.poke(value)

    def memget(self, src_rank: int, nbytes: int) -> Gen:
        """One-sided bulk get of ``nbytes`` from ``src_rank``'s partition."""
        cost = self.net.one_sided(self.rank, src_rank, nbytes)
        if cost > 0:
            yield Timeout(cost)

    def memput(self, dst_rank: int, nbytes: int) -> Gen:
        """One-sided bulk put of ``nbytes`` into ``dst_rank``'s partition."""
        cost = self.net.one_sided(self.rank, dst_rank, nbytes)
        if cost > 0:
            yield Timeout(cost)

    def chunk_get(self, src_rank: int, nnodes: int) -> Gen:
        """One-sided transfer of ``nnodes`` tree-node descriptors."""
        cost = self.net.chunk_transfer(self.rank, src_rank, nnodes)
        if cost > 0:
            yield Timeout(cost)
        tr = self.machine.tracer
        if tr.enabled:
            tr.emit(self.sim.now, self.rank, "chunk.get",
                    (src_rank, nnodes))

    def lock(self, lk: GlobalLock) -> Gen:
        """Acquire a global lock (network cost + FIFO queueing)."""
        cost = self.net.lock_cost(self.rank, lk.home)
        if cost > 0:
            yield Timeout(cost)
        ev = lk.fifo.acquire()
        # Registered *before* the yield so a fail-stop while suspended
        # here (even on an already-granted event) is traceable.
        lk.pending[self.rank] = ev
        yield ev
        lk.pending.pop(self.rank, None)
        lk.holder = self.rank
        tr = self.machine.tracer
        if tr.enabled:
            tr.emit(self.sim.now, self.rank, "lock.acq", (lk.name,))

    def try_lock(self, lk: GlobalLock) -> Gen:
        """``upc_lock_attempt``: pay the round trip, maybe get the lock."""
        cost = self.net.lock_cost(self.rank, lk.home)
        if cost > 0:
            yield Timeout(cost)
        got = lk.fifo.try_acquire()
        if got:
            lk.holder = self.rank
            tr = self.machine.tracer
            if tr.enabled:
                tr.emit(self.sim.now, self.rank, "lock.acq", (lk.name,))
        return got

    def unlock(self, lk: GlobalLock) -> Gen:
        """Release a global lock (one shared reference to its home)."""
        cost = self.net.shared_ref(self.rank, lk.home)
        if cost > 0:
            yield Timeout(cost)
        faults = self.machine.faults
        if faults is not None:
            stall = faults.roll_lock_stall(self.rank)
            if stall > 0.0:
                # Lock-holder stall fault: keep holding through the
                # stall so contenders queue behind the sleeper.
                yield Timeout(stall)
        lk.holder = None
        lk.fifo.release()
        tr = self.machine.tracer
        if tr.enabled:
            tr.emit(self.sim.now, self.rank, "lock.rel", (lk.name,))

    def wait(self, ev: SimEvent) -> Gen:
        """Block on a simulation event (used by gates/termination trees)."""
        value = yield ev
        return value
