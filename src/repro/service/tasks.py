"""The service workload: many small, independent subtree searches.

A stream's tasks are all of one (subcritical binomial) shape, each
rooted at its own substream-derived RNG state -- so task sizes vary
realistically around the shape's expected size while staying
bit-reproducible.  They are expanded *once*, into a :class:`TaskForest`
on the materialised layout of :mod:`repro.uts.materialized`: position 0
is the pool's bootstrap leaf, task ``t`` occupies positions ``off[t] ..
off[t + 1] - 1`` in sequential visit order, and ``task_of[p]`` is the
task of position ``p``.  A workload node is a forest position (an
``int``), a visit batch is the same range scan batch trees run, and the
forest lives in the process-wide tree cache (key: task shape, stream
seed, task count), so the load points of a curve and the passes of a
benchmark expand it once between them.

:class:`ServiceWorkload` is one run's view of a forest plus the per-task
outstanding-descriptor count.  The count moves in :meth:`batch_expand`
(called synchronously inside a worker's visit batch, so the update is
atomic between yields), which is how a task's *drain* -- the
open-system analogue of termination detection, scoped to one task -- is
detected without any extra protocol traffic.  Fail-stop losses route
through :meth:`on_nodes_lost` (wired as ``FaultRuntime.on_lost``): a
lost node taints its task and still counts toward the drain, so a
stormed run ends with every admitted task accounted as completed,
shed, or lost.
"""

from __future__ import annotations

from array import array
from typing import List

from repro.errors import ConfigError, ProtocolError
from repro.sim.rng import substream_seed
from repro.uts.materialized import MaterializedTree, cached, expand
from repro.uts.params import TreeParams
from repro.uts.tree import Tree

__all__ = ["ServiceWorkload"]

#: Positions are ``array('i')`` items.
_MAX_NODES = 2 ** 31 - 1


class TaskForest(MaterializedTree):
    """A stream's tasks, expanded one after the other behind the
    bootstrap leaf (see the module docstring).  Read-only and shared by
    every run of the stream."""

    __slots__ = ("off", "task_of")

    def __init__(self, params: TreeParams, seed: int, n_tasks: int) -> None:
        estimate = n_tasks * (params.expected_size() or 1.0)
        built = None
        if estimate < _MAX_NODES:
            base = Tree(params)
            init = base.engine.init
            roots = [(init(substream_seed(seed, "svc.task", tid)
                           & 0x7FFFFFFFFFFFFFFF), 0)
                     for tid in range(n_tasks)]
            built = expand(base, roots, _MAX_NODES - 1)
        if built is None:
            raise ConfigError(
                f"n_tasks={n_tasks} tasks of {params.describe()} expand to "
                f"an estimated {estimate:.3g} nodes; a task forest holds at "
                f"most {_MAX_NODES}")
        delta, size, max_depth = built
        # AlgorithmBase seeds T0's stack with ``root()`` unconditionally;
        # the bootstrap expands to nothing and belongs to no task.
        super().__init__(params, array("i", [-1]) + delta,
                         array("i", [1]) + size, max_depth)
        self.off = array("i", [1])
        self.task_of = array("i", [-1])
        for tid in range(n_tasks):
            span = self.size[self.off[tid]]
            self.off.append(self.off[tid] + span)
            self.task_of.extend(array("i", [tid]) * span)


class ServiceWorkload:
    """Task-aware search space over one inner tree shape."""

    def __init__(self, inner_params: TreeParams, seed: int = 0) -> None:
        #: AlgorithmBase reads ``params.compute_granularity`` for the
        #: per-node visit time; expose the inner shape's directly.
        self.params = inner_params
        self._seed = seed
        #: Injected by :meth:`attach` (drain + taint callbacks).
        self.runtime = None

    def attach(self, runtime, n_tasks: int) -> None:
        """Bind to one run: the stream's forest (cached) and fresh
        per-task ledgers.  ``ServiceRuntime`` calls this, since the
        stream's length is its to know."""
        params, seed = self.params, self._seed
        forest = cached((params, seed, n_tasks),
                        lambda cap: TaskForest(params, seed, n_tasks))
        self.runtime = runtime
        self.forest = forest
        #: The layout, as the compiled Working state binds it.
        self.delta, self.size = forest.delta, forest.size
        self.task_of = forest.task_of
        #: task id -> unvisited descriptors currently in the system.
        self.outstanding = array("i", bytes(4 * n_tasks))
        #: task id -> nodes visited (exact per-task work).
        self.task_nodes = array("i", bytes(4 * n_tasks))
        #: What :meth:`batch_expand` books, as the compiled Working
        #: state binds it to do the same.
        self.ledger = (self.task_of, self.outstanding, self.task_nodes,
                       runtime.on_task_drained)
        self._scan = forest.batch_expand
        if runtime.sim.fastpath == "fast":
            from repro.fastpath import batch_expander
            self._scan = batch_expander(forest) or self._scan

    def describe(self) -> str:
        return f"service-tasks({self.params.describe()})"

    # -- search-space protocol ----------------------------------------------

    def root(self) -> int:
        return 0

    def task_root(self, tid: int) -> int:
        """Task ``tid``'s root node (height 0: ``b0`` children)."""
        return self.forest.off[tid]

    def num_children(self, node: int) -> int:
        return self.forest.num_children(node)

    def children(self, node: int) -> List[int]:
        return self.forest.children(node)

    def batch_expand(self, local: list, limit: int, thresh: int) -> tuple:
        """One visit batch, with drain accounting.

        Runs inside the visiting worker's batch (no yield between the
        scan and the bookkeeping), so the outstanding counter is exact
        at every simulation instant.  A stack holds one task at a time
        -- a worker takes a task or steals only when empty-handed -- so
        the batch is booked to one task; the tasks tile the layout in
        order, which makes the two ends of ``local`` the whole check.
        """
        task_of = self.task_of
        tid = task_of[min(local)]
        if task_of[max(local)] != tid:
            raise ProtocolError(
                f"{self.describe()}: one stack holds nodes of tasks {tid} "
                f"and {task_of[max(local)]}; drains are booked per batch, "
                "to the one task a stack may hold")
        n, pushed = self._scan(local, limit, thresh)
        if tid >= 0:
            self.task_nodes[tid] += n
            left = self.outstanding[tid] + pushed - n
            self.outstanding[tid] = left
            if not left:
                self.runtime.on_task_drained(tid)
        return n, pushed

    # -- fault hook ----------------------------------------------------------

    def on_nodes_lost(self, nodes: List[int]) -> None:
        """Fail-stop losses: taint the tasks, keep the drain exact.

        A lost descriptor was never visited, so its whole subtree is
        gone; the task can never complete and is accounted ``lost``
        when its surviving descriptors drain.
        """
        runtime = self.runtime
        out = self.outstanding
        for node in nodes:
            tid = self.task_of[node]
            if tid < 0:
                continue
            runtime.taint(tid)
            out[tid] -= 1
            if not out[tid]:
                runtime.on_task_drained(tid)
