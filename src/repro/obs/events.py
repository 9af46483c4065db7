"""The trace record and the schema of its fields.

A hook site records one :class:`ObsEvent` per protocol interaction:
``(time, rank, kind, fields)``, where ``fields`` is a tuple of scalars
in the order :data:`EVENT_SCHEMA` declares for ``kind`` -- the values
themselves, never formatted, so a record costs one tuple on the hot
path and reads back exactly.  :attr:`ObsEvent.args` names the values;
the exporters and analyses read either form.

A trailing field may be left off where it is optional (the ``dup`` of
``steal.req`` / ``steal``, the ``round`` / ``deficit`` of
``token.hop``), so ``fields`` is always a prefix of the declared names.

>>> ev = ObsEvent(2e-6, 3, "steal", (1, 2, 16))
>>> ev.args
{'from': 1, 'chunks': 2, 'nodes': 16}
>>> ObsEvent(0.0, 0, "state", ("working",)).args
{'state': 'working'}
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Tuple

__all__ = ["ObsEvent", "EVENT_SCHEMA", "FIELD_TYPES"]

#: Every event kind the instrumented stack can emit: the names of its
#: fields, in the order hook sites pass them, and what the event means.
#: The schema reference backing ``docs/observability.md``.
EVENT_SCHEMA: Dict[str, Tuple[Tuple[str, ...], str]] = {
    # -- state machine (Figure 1) -------------------------------------
    "state": (("state",), "thread entered a Figure-1 state"),
    # -- tree exploration ---------------------------------------------
    "visit": (("n",), "batch of node visits charged at the batch start"),
    # -- stack traffic ------------------------------------------------
    "release": (("chunks",),
                "owner moved a chunk local->shared (chunks now shared)"),
    # -- steal protocol (thief side) ----------------------------------
    "steal.req": (("victim", "dup"),
                  "thief initiated a steal attempt (dup=1: a redundant "
                  "request)"),
    "steal": (("from", "chunks", "nodes", "dup"),
              "steal succeeded, nodes in hand (dup=1: a ledgered "
              "duplicate claim)"),
    "steal.fail": (("victim", "reason"),
                   "steal attempt ended empty; reason "
                   "busy|raced|empty|denied|giveup|timeout"),
    "steal.dup": (("victim", "idx", "nodes", "work"),
                  "fence-free claim resolved to an already-claimed chunk: "
                  "the thief took a ledgered duplicate copy (idx: era "
                  "index, work: duplicated subtree size)"),
    # -- steal protocol (victim side) ---------------------------------
    "service": (("thief", "chunks"),
                "victim answered a steal request (chunks=0 on a denial)"),
    "steal.deny": (("thief",), "victim denied a steal request (no surplus)"),
    # -- data movement -------------------------------------------------
    "chunk.get": (("src", "nodes"), "one-sided chunk transfer completed"),
    # -- locks ---------------------------------------------------------
    "lock.acq": (("name",), "global lock acquired"),
    "lock.rel": (("name",), "global lock released"),
    # -- messaging (mpi-ws substrate) ---------------------------------
    "msg.send": (("dst", "tag"), "two-sided send posted"),
    "msg.recv": (("src", "tag"), "blocking receive completed"),
    # -- idle gate (idle_strategy="park") ------------------------------
    "idle.park": ((), "thread parked on the idle gate (no surplus "
                      "anywhere)"),
    "idle.wake": ((), "parked thread woken (surplus batch, targeted wake, "
                      "or termination wake_all)"),
    # -- termination ---------------------------------------------------
    "sbarrier.enter": (("count",), "streamlined barrier entered"),
    "sbarrier.leave": (("count",), "streamlined barrier left for a steal"),
    "sbarrier.announce": ((), "tree announcement of global termination"),
    "cbarrier.cancel": ((), "cancelable barrier reset by a release"),
    "cbarrier.terminate": ((), "cancelable barrier completed (termination)"),
    "token.hop": (("to", "colour", "round", "deficit"),
                  "termination token forwarded along the ring (round and "
                  "deficit under faults)"),
    "mpi.term": ((), "rank 0 broadcast TERM"),
    "tsplit.rebalance": (("round", "moves", "nodes"),
                         "tree-split rebalance round repartitioned loads "
                         "(emitted after every move landed)"),
    "tsplit.term": (("round",), "tree-split rebalance round found the "
                                "machine empty (global termination)"),
    # -- fault injections ----------------------------------------------
    "fault.kill": ((), "thread fail-stopped (rank = victim of the kill)"),
    "fault.drop": (("src", "tag"), "control message dropped"),
    "fault.dup": (("src", "tag"), "control message duplicated"),
    "fault.delay": (("src", "tag", "extra"), "message delayed"),
    "fault.stall": (("t",), "lock holder stalled through a release"),
    "fault.stale": (("var", "until"), "stale-visibility window opened"),
    "fault.suspect": ((), "failure detector first suspected a rank "
                          "(rank = the suspect)"),
    "fault.msg_to_dead": (("src", "tag"),
                          "message to a dead rank discarded"),
    "fault.lost": (("nodes",), "node descriptors accounted as lost"),
    # -- recovery paths ------------------------------------------------
    "recover.giveup": (("victim",), "thief abandoned a steal on a "
                                    "suspected-dead victim"),
    "recover.steal_timeout": (("victim",), "mpi-ws steal transaction timed "
                                           "out and was retried"),
    "recover.token_relaunch": (("round",),
                               "rank 0 relaunched a lost ring token"),
    "recover.dup_suppressed": (("thief", "seq"), "duplicate steal request "
                                                 "suppressed by sequence"),
    "recover.barrier_death": (("count",), "counted barrier completed by "
                                          "death accounting"),
    # -- service mode (open-system driver, rank -1 = control plane) ----
    "task.arrive": (("task",), "a query task arrived at the admission door"),
    "task.admit": (("task", "depth"),
                   "task entered the bounded queue (depth after)"),
    "task.shed": (("task", "reason"),
                  "task dropped by backpressure or deadline exhaustion; "
                  "reason oldest|newest|deadline"),
    "task.retry": (("task", "attempt", "backoff"),
                   "queued task expired its attempt deadline and was "
                   "scheduled for re-admission"),
    "task.start": (("task", "wait"), "a worker pulled the task and pushed "
                                     "its root (wait: queue wait this "
                                     "attempt)"),
    "task.done": (("task", "nodes", "lat"),
                  "task's subtree fully visited (lat: first-arrival-to-"
                  "completion latency)"),
    "task.lost": (("task", "nodes"), "task drained but lost nodes to a "
                                     "fail-stop fault (nodes visited "
                                     "before the loss)"),
    "service.close": (("admitted", "completed", "shed", "lost"),
                      "service drained: arrivals done and no task left in "
                      "the system"),
    # -- engine --------------------------------------------------------
    "sim.interrupt": (("name",), "a process was interrupted (fail-stop "
                                 "primitive)"),
}

#: The kinds that declare (or relay) global termination: the barrier
#: announcements, mpi-ws's TERM broadcast, tree-split's empty rebalance
#: round, and a service stream's exact drain declaration.
_TERM_KINDS = frozenset({"sbarrier.announce", "cbarrier.terminate",
                         "mpi.term", "tsplit.term", "service.close"})

#: The type of every field, the same in each kind that declares it:
#: ranks and counts are ints, simulated seconds floats, names strings.
FIELD_TYPES: Dict[str, type] = {
    **dict.fromkeys(
        ("n", "chunks", "victim", "dup", "from", "nodes", "idx", "work",
         "thief", "src", "dst", "count", "to", "round", "deficit", "moves",
         "seq", "task", "depth", "attempt", "admitted", "completed", "shed",
         "lost"), int),
    **dict.fromkeys(("extra", "t", "until", "backoff", "wait", "lat"), float),
    **dict.fromkeys(("state", "reason", "name", "tag", "colour", "var"), str),
}


class ObsEvent(NamedTuple):
    """One trace record: when, who, what, and the kind's fields."""

    time: float
    rank: int
    kind: str
    fields: tuple = ()

    @property
    def args(self) -> Dict[str, Any]:
        """``fields`` keyed by the names :data:`EVENT_SCHEMA` declares."""
        return dict(zip(EVENT_SCHEMA[self.kind][0], self.fields))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the JSONL exporter's line payload)."""
        return {"t": self.time, "rank": self.rank, "kind": self.kind,
                "args": self.args}
