"""Run results: the numbers the paper's figures are made of.

:class:`RunResult` bundles one parallel search's outcome with the
derived quantities the evaluation reports -- nodes/second, speedup
relative to the platform's sequential rate, parallel efficiency, and
steal-rate -- plus a :meth:`verify` check against the sequential count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, NamedTuple, Optional

from repro.errors import ProtocolError
from repro.faults.counters import FaultCounters
from repro.metrics.counters import AggregateStats, aggregate

__all__ = ["Fusion", "RunResult"]


class Fusion(NamedTuple):
    """Which of a run's states ran compiled (:mod:`repro.fastpath`), as
    the fusion gate decided it once, at the first thread resume
    (docs/performance.md, "What each variant fuses").  A member is one
    compiled stand-in -- ``work`` (``WorkPhase``), ``search``
    (``SearchPhase``), ``claim`` (its Stealing state), ``barrier`` (its
    streamlined barrier), ``idle`` (mpi-ws's ``IdlePhase``) -- and a
    variant's members are in exactly one of ``bound`` and ``declined``.
    """

    threads: int
    #: Member -> the ranks that bound it: those the fault plan spares
    #: that reached the state (a parked rank that never works binds no
    #: ``work``).
    bound: Dict[str, int]
    #: Member -> why the gate declined it on every rank.
    declined: Dict[str, str]
    #: The ranks the fault plan kills: they bind no member (fail-stop
    #: recovery lives in the generators).
    victims: FrozenSet[int] = frozenset()

    def __str__(self) -> str:
        bound = ", ".join(f"{m} {n}" for m, n in self.bound.items())
        out = f"{bound} of {self.threads} ranks" if bound else "nothing"
        if self.victims and bound:
            out += f"; fault-plan victims in Python: {len(self.victims)}"
        reasons: Dict[str, list] = {}
        for member, why in self.declined.items():
            reasons.setdefault(why, []).append(member)
        for why, members in reasons.items():
            out += f"; {', '.join(members)} declined: {why}"
        return out


@dataclass
class RunResult:
    """Outcome of one parallel UTS run on the simulated machine."""

    algorithm: str
    n_threads: int
    chunk_size: int
    machine_name: str
    tree_description: str
    #: Total nodes counted by the parallel search.
    total_nodes: int
    #: Simulated wall time of the run (seconds).
    sim_time: float
    #: Simulated per-node visit time on this platform (seconds).
    node_visit_time: float
    per_thread: list = field(default_factory=list, repr=False)
    #: Host (real) seconds the simulation itself took -- diagnostics only.
    host_seconds: float = 0.0
    #: Discrete events the engine processed -- diagnostics only.
    engine_events: int = 0
    #: Nodes provably destroyed by fail-stop faults: the exact subtree
    #: size under every lost descriptor.  Zero on fault-free runs and
    #: under delay/duplication-only fault plans.
    lost_work: int = 0
    #: Nodes legitimately visited more than once by a
    #: multiplicity-relaxed algorithm (fence-free stealing): the exact
    #: subtree size under every duplicated chunk descriptor.  Zero for
    #: every strict (single-owner) variant.
    dup_work: int = 0
    #: Per-fault-type injection and recovery counters; None on
    #: fault-free runs.
    fault_counters: Optional[FaultCounters] = field(default=None, repr=False)
    #: The run's :class:`~repro.obs.TraceSink` when one was passed as
    #: ``tracer=`` (its ``meta`` filled in by the runner); None when the
    #: run was untraced.  Feed it to :mod:`repro.obs` exporters/analyses.
    trace: Optional[object] = field(default=None, repr=False)
    #: What ran compiled: the fusion gate's answer, per member.
    fusion: Optional[Fusion] = field(default=None, repr=False)

    # -- derived metrics ----------------------------------------------------

    @property
    def stats(self) -> AggregateStats:
        return aggregate(self.per_thread)

    @property
    def t1(self) -> float:
        """Sequential simulated time for the same tree on this platform."""
        return self.total_nodes * self.node_visit_time

    @property
    def nodes_per_sec(self) -> float:
        """Absolute performance: nodes per simulated second."""
        return self.total_nodes / self.sim_time if self.sim_time > 0 else 0.0

    @property
    def speedup(self) -> float:
        return self.t1 / self.sim_time if self.sim_time > 0 else 0.0

    @property
    def efficiency(self) -> float:
        return self.speedup / self.n_threads if self.n_threads else 0.0

    @property
    def steals_per_sec(self) -> float:
        """Successful load-balancing operations per simulated second."""
        return self.stats.steals_ok / self.sim_time if self.sim_time > 0 else 0.0

    @property
    def working_fraction(self) -> float:
        """Fraction of total thread-time spent in the working state."""
        return self.stats.working_fraction

    # -- validation -----------------------------------------------------------

    def verify(self, expected_nodes: int) -> None:
        """Raise unless the parallel count accounts for every node.

        Fault-free (and under delay/duplication-only faults) the
        parallel count must equal the sequential count exactly.  Under
        fail-stop faults the count may fall short, but only by exactly
        :attr:`lost_work` -- the provable size of the destroyed
        subtrees.  A multiplicity-relaxed algorithm may *overcount*,
        but only by exactly :attr:`dup_work` -- the ledgered size of
        every duplicated subtree.  Any other gap is a protocol bug.
        """
        if self.total_nodes + self.lost_work != expected_nodes + self.dup_work:
            raise ProtocolError(
                f"{self.algorithm} on {self.n_threads} threads counted "
                f"{self.total_nodes} nodes + {self.lost_work} provably "
                f"lost, expected {expected_nodes} + {self.dup_work} "
                f"ledgered duplicate(s) (lost/duplicated work)"
            )

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.algorithm:>16s} T={self.n_threads:<5d} k={self.chunk_size:<4d} "
            f"nodes={self.total_nodes:>12,d} "
            f"time={self.sim_time * 1e3:9.2f}ms "
            f"speedup={self.speedup:8.1f} eff={self.efficiency * 100:5.1f}% "
            f"steals={self.stats.steals_ok:>7d} "
            f"({self.steals_per_sec:,.0f}/s)"
        )
