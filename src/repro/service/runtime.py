"""Admission control, backpressure, deadlines, and task accounting.

:class:`ServiceRuntime` is the open-system control plane around the
work-stealing pool: a dispatcher process draws interarrival gaps from
the :class:`~repro.service.arrivals.ArrivalProcess` substream and
offers tasks to a bounded admission queue; idle workers pull from the
queue (:meth:`take`); per-attempt deadlines expire lazily at take time
into retry-with-backoff or a shed; and every transition updates the
task-conservation ledger

    admitted == completed + lost + shed + queued + retrying + running
                + blocked-at-door

which :class:`~repro.check.invariants.InvariantMonitor` asserts at
every trace emit and which must close exactly (in-system terms all
zero) when the service drains.

Atomicity discipline: counter updates happen synchronously inside one
simulation event, *before* any trace emit, so the ledger is consistent
at every observable instant.  Task-drain accounting is the one
exception -- a drain is detected inside the workload's visit scan,
before the batch's push/pop counters are booked, where the stacks'
counters are transiently out of sync with their contents -- so drains
are deferred one zero-delay callback
(``Simulator._call_at``): the callback runs as its own event, after the
batch's bookkeeping has settled.  The callback is scheduled on traced
and untraced runs alike, keeping the two bit-identical.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError, ProtocolError
from repro.service.arrivals import ArrivalProcess
from repro.sim.engine import SimEvent, Timeout
from repro.sim.rng import StreamRng
from repro.uts.params import TreeParams

__all__ = ["ServiceConfig", "ServiceRuntime", "Task"]

_POLICIES = ("block", "shed-oldest", "shed-newest")
#: Base retry backoff, seconds (doubles per attempt).
RETRY_BACKOFF = 200e-6
#: Deterministic jitter fraction on each retry backoff (substream
#: drawn), de-synchronising retries that expired together.
RETRY_JITTER = 0.25
#: Per-task subtree interior branching factor (the binomial ``m``).
TASK_M = 2


@dataclass(frozen=True)
class ServiceConfig:
    """One service run's open-system parameters (immutable)."""

    #: Arrival model (deterministic substream-driven gaps).
    arrivals: ArrivalProcess = ArrivalProcess()
    #: Tasks the arrival process generates (the open stream is run over
    #: a finite horizon so runs terminate; the system never *needs*
    #: global drain to stay correct mid-stream).
    n_tasks: int = 200
    #: Bounded admission-queue capacity.
    queue_capacity: int = 64
    #: Backpressure when the queue is full: ``block`` (the arrival
    #: source waits -- closed-loop backpressure), ``shed-oldest`` (evict
    #: the head to admit the newcomer), ``shed-newest`` (drop the
    #: newcomer).
    policy: str = "block"
    #: Per-attempt queue deadline, seconds (0 = none): a task still
    #: queued this long after its (re-)admission is expired at take
    #: time and retried or shed.
    deadline: float = 0.0
    #: Re-admissions allowed after deadline expiry before the task is
    #: shed for good.
    max_retries: int = 2
    #: Per-task subtree shape: binomial root branching factor ...
    task_b0: int = 4
    #: ... and interior probability (``TASK_M * task_q < 1``: each
    #: query is a finite search, expected ``1 + b0 / (1 - m*q)`` nodes).
    task_q: float = 0.45
    #: UTS compute-granularity knob: per-node work multiplier, for
    #: modelling queries whose state evaluation is expensive.
    task_gran: int = 1
    #: RNG engine minting task roots ("splitmix" is the cheap one).
    task_engine: str = "splitmix"
    #: Root seed for the service's substreams (arrivals, task roots,
    #: retry jitter) -- independent of the machine/probe-order seed.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_tasks < 0:
            raise ConfigError(f"n_tasks must be >= 0, got {self.n_tasks}")
        if self.queue_capacity < 1:
            raise ConfigError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.policy not in _POLICIES:
            raise ConfigError(
                f"policy {self.policy!r} unknown (known: "
                f"{', '.join(_POLICIES)})")
        # ``not lo < x < inf`` refuses NaN and inf too: a NaN deadline
        # turned deadlines off.
        if not 0.0 <= self.deadline < math.inf:
            raise ConfigError(
                f"deadline must be >= 0 and finite, got {self.deadline!r}")
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}")

    def inner_params(self) -> TreeParams:
        """The per-task subtree shape as a :class:`TreeParams`."""
        return TreeParams(shape="binomial", b0=self.task_b0, m=TASK_M,
                          q=self.task_q, seed=0, engine=self.task_engine,
                          compute_granularity=self.task_gran)

    def expected_task_nodes(self) -> float:
        """Expected nodes per task (analytic, for capacity estimates)."""
        return 1.0 + self.task_b0 / (1.0 - TASK_M * self.task_q)


class Task:
    """One query task's lifecycle record."""

    __slots__ = ("tid", "arrival", "deadline_at", "attempts", "started",
                 "finished", "root")

    def __init__(self, tid: int, arrival: float) -> None:
        self.tid = tid
        #: First arrival time (SLO latency is measured from here, even
        #: across retries).
        self.arrival = arrival
        #: Current attempt's queue deadline (inf when no deadline).
        self.deadline_at = float("inf")
        self.attempts = 0
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.root = None


class ServiceRuntime:
    """Admission queue + dispatcher + task ledger for one service run."""

    def __init__(self, cfg: ServiceConfig, machine, algo, workload) -> None:
        self.cfg = cfg
        self.machine = machine
        self.sim = machine.sim
        self.algo = algo
        self.workload = workload
        workload.attach(self, cfg.n_tasks)
        #: Algorithms advertise the service for the invariant monitor.
        algo.service = self
        #: Drains are detected in the workload's scan, so the pool
        #: visits through it even when handed a wrapper around the
        #: workload (the benchmark's timing probe).
        algo._batch_expand = workload.batch_expand
        self.queue: deque = deque()
        self.tasks: dict = {}
        self._tainted: set = set()
        self._space: deque = deque()  # block-policy space waiters
        self._rng_arrival = StreamRng(cfg.seed, "svc", "arrival")
        self._rng_retry = StreamRng(cfg.seed, "svc", "retry")
        # -- the task-conservation ledger (see module docstring) --
        self.admitted = 0
        self.completed = 0
        self.lost_tasks = 0
        self.shed = {"oldest": 0, "newest": 0, "deadline": 0}
        self.running = 0
        self.retry_pending = 0
        self.door_blocked = 0
        # -- observability --
        self.retries = 0
        self.deadline_miss = 0
        self.block_waits = 0
        self.latencies: list = []
        self.queue_peak = 0
        #: (time, depth) samples, recorded at every depth change.
        self.depth_timeline: list = []
        self.arrivals_done = cfg.n_tasks == 0
        self.finished = False
        if machine.faults is not None:
            machine.faults.on_lost = workload.on_nodes_lost

    # -- derived -------------------------------------------------------------

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    @property
    def in_system(self) -> int:
        return (len(self.queue) + self.retry_pending + self.running
                + self.door_blocked)

    def _sample_depth(self) -> None:
        depth = len(self.queue)
        if depth > self.queue_peak:
            self.queue_peak = depth
        self.depth_timeline.append((self.sim.now, depth))

    # -- arrival side --------------------------------------------------------

    def start(self) -> None:
        """Spawn the dispatcher (after the workers, for a fixed order)."""
        self.sim.spawn(self._dispatcher(), name="svc.arrivals")

    def _dispatcher(self):
        cfg = self.cfg
        tr = self.machine.tracer
        gaps = cfg.arrivals.gaps(self._rng_arrival)
        for tid in range(cfg.n_tasks):
            gap = next(gaps)
            if gap > 0.0:
                yield Timeout(gap)
            task = Task(tid, arrival=self.sim.now)
            self.tasks[tid] = task
            self.admitted += 1
            self.door_blocked += 1
            if tr.enabled:
                tr.emit(self.sim.now, -1, "task.arrive", (tid,))
            yield from self._admit_blocking(task)
        self.arrivals_done = True
        self._check_close()

    def _admit_blocking(self, task: Task):
        """Admit ``task``, waiting for queue space under ``block``.

        The task is counted ``door_blocked`` on entry; :meth:`_admit`
        moves it to its destination bucket (queue or shed) atomically.
        """
        while not self._admit(task):
            self.block_waits += 1
            ev = SimEvent(self.sim)
            self._space.append(ev)
            yield ev

    def _admit(self, task: Task) -> bool:
        """One admission attempt; False only under the block policy."""
        cfg = self.cfg
        q = self.queue
        tr = self.machine.tracer
        if len(q) >= cfg.queue_capacity:
            if cfg.policy == "block":
                return False
            if cfg.policy == "shed-oldest":
                victim = q.popleft()
                self.shed["oldest"] += 1
                self._sample_depth()
                if tr.enabled:
                    tr.emit(self.sim.now, -1, "task.shed",
                            (victim.tid, "oldest"))
            else:  # shed-newest: the incoming task is dropped.
                self.door_blocked -= 1
                self.shed["newest"] += 1
                if tr.enabled:
                    tr.emit(self.sim.now, -1, "task.shed",
                            (task.tid, "newest"))
                self._check_close()
                return True
        self.door_blocked -= 1
        if cfg.deadline > 0.0:
            task.deadline_at = self.sim.now + cfg.deadline
        q.append(task)
        self._sample_depth()
        if tr.enabled:
            tr.emit(self.sim.now, -1, "task.admit", (task.tid, len(q)))
        self._wake_worker()
        return True

    def _wake_worker(self) -> None:
        """An admission must reach a parked pool (one wake per task;
        steal diffusion ramps the rest)."""
        gate = self.algo._gate
        if gate is not None:
            gate.wake_some(1)

    def _notify_space(self) -> None:
        if self._space:
            self._space.popleft().succeed()

    # -- worker side ---------------------------------------------------------

    def take(self, rank: int) -> Optional[Task]:
        """Pull the next startable task for an idle worker.

        Synchronous (no yields): the pop, the lazy deadline check, and
        the start accounting land in the caller's event, atomically
        with its subsequent root push.  Returns None when no startable
        task is queued.
        """
        q = self.queue
        now = self.sim.now
        while q:
            task = q.popleft()
            self._sample_depth()
            self._notify_space()
            if now > task.deadline_at:
                self._expire(task)
                continue
            task.started = now
            task.root = self.workload.task_root(task.tid)
            self.running += 1
            self.workload.outstanding[task.tid] = 1
            tr = self.machine.tracer
            if tr.enabled:
                tr.emit(self.sim.now, rank, "task.start",
                        (task.tid, now - task.arrival))
            return task
        return None

    def _expire(self, task: Task) -> None:
        """A task sat past its attempt deadline: retry or shed."""
        cfg = self.cfg
        tr = self.machine.tracer
        task.attempts += 1
        if task.attempts > cfg.max_retries:
            self.shed["deadline"] += 1
            if tr.enabled:
                tr.emit(self.sim.now, -1, "task.shed",
                        (task.tid, "deadline"))
            self._check_close()
            return
        self.retries += 1
        self.retry_pending += 1
        backoff = RETRY_BACKOFF * (2.0 ** (task.attempts - 1))
        backoff *= 1.0 + RETRY_JITTER * (
            self._rng_retry.uniform(0.0, 1.0) - 0.5)
        if tr.enabled:
            tr.emit(self.sim.now, -1, "task.retry",
                    (task.tid, task.attempts, backoff))
        self.sim.spawn(self._readmit(task, backoff),
                       name=f"svc.retry[{task.tid}]")

    def _readmit(self, task: Task, delay: float):
        yield Timeout(delay)
        self.retry_pending -= 1
        self.door_blocked += 1
        yield from self._admit_blocking(task)
        self._check_close()

    # -- completion side -----------------------------------------------------

    def taint(self, tid: int) -> None:
        """Mark a task as having lost nodes to a fail-stop fault."""
        self._tainted.add(tid)

    def on_task_drained(self, tid: int) -> None:
        """All of task ``tid``'s descriptors are visited or lost.

        Called from inside the workload's visit scan, where stack
        ledgers are transiently inconsistent -- defer the accounting
        (and its emits) one zero-delay callback so it lands in its own
        event.  Scheduled unconditionally: traced and untraced runs
        keep identical event schedules.
        """
        self.sim._call_at(0.0, lambda: self._account_drain(tid))

    def _account_drain(self, tid: int) -> None:
        task = self.tasks[tid]
        now = self.sim.now
        task.finished = now
        self.running -= 1
        nodes = self.workload.task_nodes[tid]
        tr = self.machine.tracer
        if tid in self._tainted:
            self.lost_tasks += 1
            if tr.enabled:
                tr.emit(self.sim.now, -1, "task.lost", (tid, nodes))
        else:
            self.completed += 1
            latency = now - task.arrival
            self.latencies.append(latency)
            if 0.0 < self.cfg.deadline < latency:
                self.deadline_miss += 1
            if tr.enabled:
                tr.emit(self.sim.now, -1, "task.done",
                        (tid, nodes, latency))
        self._check_close()

    # -- close protocol ------------------------------------------------------

    def _check_close(self) -> None:
        """Drain detection: the per-stream analogue of termination.

        Exact by construction -- every term is a synchronously
        maintained counter, so no probe/quiescence round is needed.
        """
        if self.finished or not self.arrivals_done or self.in_system:
            return
        self.finished = True
        # The pool must be globally work-free at this instant: the
        # batch algorithms' quiescence oracle applies verbatim.
        self.algo.quiescence_check()
        tr = self.machine.tracer
        if tr.enabled:
            tr.emit(self.sim.now, -1, "service.close",
                    (self.admitted, self.completed, self.shed_total,
                     self.lost_tasks))
        gate = self.algo._gate
        if gate is not None:
            gate.wake_all()

    # -- end-of-run contract -------------------------------------------------

    def assert_conservation(self) -> None:
        """Exact task conservation once the run ends."""
        if self.in_system:
            raise ProtocolError(
                f"service drained with {self.in_system} task(s) still in "
                f"the system (queue={len(self.queue)} "
                f"retrying={self.retry_pending} running={self.running} "
                f"blocked={self.door_blocked})")
        accounted = self.completed + self.shed_total + self.lost_tasks
        if self.admitted != accounted:
            raise ProtocolError(
                f"task conservation violated: admitted {self.admitted} != "
                f"completed {self.completed} + shed {self.shed_total} "
                f"+ lost {self.lost_tasks}")
