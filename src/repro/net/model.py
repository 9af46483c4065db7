"""Communication cost model for the simulated PGAS machine.

The paper's analysis hinges on the *relative* costs of four operation
classes, which this model makes explicit:

* local references (free at simulation granularity),
* node-local shared references (same SMP node, address translation only),
* remote one-sided get/put (network latency + payload/bandwidth),
* remote lock traffic (a round trip, "typically an order of magnitude
  greater than the cost of a shared variable reference", Sect. 3.3.3).

Topology is a flat cluster of SMP nodes: ``cores_per_node`` consecutive
UPC thread ranks share a node (the layout used by the paper's runs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import ConfigError

__all__ = ["NetworkModel", "NODE_DESC_BYTES"]

# Serialized size of one UTS tree-node descriptor travelling in a steal:
# 20-byte SHA-1 state + height + child-count metadata, padded as in the
# reference UTS struct.
NODE_DESC_BYTES = 56


@dataclass(frozen=True)
class NetworkModel:
    """Costs (seconds) for the simulated machine's communication fabric.

    The defaults are placeholders; use the presets in
    :mod:`repro.net.presets` for the paper's three platforms.
    """

    name: str = "generic"
    #: UPC thread ranks per SMP node (1 => every rank is its own node).
    cores_per_node: int = 1
    #: Sequential tree-node visit time (1 / sequential rate of Sect. 4.1).
    node_visit_time: float = 1.0 / 2.0e6
    #: Cost of a shared-variable reference to a rank on the *same* node.
    local_shared_ref: float = 0.05e-6
    #: Cost of a shared-variable reference to a rank on a *different* node.
    remote_shared_ref: float = 4.0e-6
    #: One-sided bulk transfer: per-message startup latency (off-node).
    rdma_latency: float = 6.0e-6
    #: One-sided bulk transfer bandwidth, bytes/second (off-node).
    rdma_bandwidth: float = 900.0e6
    #: Two-sided (MPI-style) message startup latency (off-node).
    msg_latency: float = 6.0e-6
    #: Two-sided message bandwidth, bytes/second (off-node).
    msg_bandwidth: float = 900.0e6
    #: CPU overhead the *sender* pays to inject a two-sided message
    #: (the MPI library's per-send cost; the rest of the latency is
    #: overlapped network time).
    msg_injection: float = 0.5e-6
    #: Extra round-trip cost of acquiring an *uncontended* remote lock on
    #: top of the shared references it performs.
    lock_overhead: float = 8.0e-6
    #: Serialization at a shared variable's home when many ranks hit it
    #: at once (per woken waiter); models the contention the paper blames
    #: for the shared-memory algorithm's collapse.
    home_occupancy: float = 0.3e-6
    #: On-node bandwidth for transfers between ranks sharing a node.
    onnode_bandwidth: float = 3.0e9
    #: On-node transfer startup latency.
    onnode_latency: float = 0.3e-6
    #: Sect. 6.1 performance-portability mode: when True the runtime
    #: has no hardware one-sided support -- remote operations are
    #: implemented with active messages that the *target* must service
    #: from its communication progress engine (``bupc_poll()``), adding
    #: ``am_service_overhead`` to every off-node remote operation.
    am_mode: bool = False
    #: Mean wait for the target's progress engine in AM mode.
    am_service_overhead: float = 8.0e-6

    def __post_init__(self) -> None:
        if not self.cores_per_node >= 1:
            raise ConfigError(f"cores_per_node must be >= 1, got {self.cores_per_node}")
        # ``not lo < x < inf`` refuses NaN and inf too: no run would finish.
        for fld in ("node_visit_time", "rdma_bandwidth", "msg_bandwidth",
                    "onnode_bandwidth"):
            if not 0 < (v := getattr(self, fld)) < math.inf:
                raise ConfigError(f"{fld} must be positive and finite, got {v!r}")
        for fld in ("local_shared_ref", "remote_shared_ref", "rdma_latency",
                    "msg_latency", "msg_injection", "lock_overhead",
                    "home_occupancy", "onnode_latency",
                    "am_service_overhead"):
            if not 0 <= (v := getattr(self, fld)) < math.inf:
                raise ConfigError(
                    f"{fld} must be non-negative and finite, got {v!r}")
        # Per-locality constants for the cost methods below (same float
        # expressions); not fields, so replace() recomputes them and
        # fields(), ==, repr see only the configuration.
        am = self.am_service_overhead if self.am_mode else 0.0
        derive = object.__setattr__
        derive(self, "_am_pen", am)
        derive(self, "_remote_ref", self.remote_shared_ref + am)
        derive(self, "_lock_local",
               self.local_shared_ref + self.lock_overhead * 0.1)
        derive(self, "_lock_remote",
               self.remote_shared_ref + am + self.lock_overhead)

    # -- operation costs --------------------------------------------------
    #
    # A node is ``cores_per_node`` consecutive ranks.  Each method runs
    # on every steal, lock or message, so each is one locality test and
    # none calls another.

    def shared_ref(self, src: int, dst: int) -> float:
        """One shared-variable read or write by ``src`` homed at ``dst``."""
        if src == dst:
            return 0.0
        cpn = self.cores_per_node
        if src // cpn == dst // cpn:
            return self.local_shared_ref
        return self._remote_ref

    def ref_cost_bounds(self, src: int) -> tuple:
        """``(node_lo, node_hi, local, remote)`` for inlined probe loops.

        For any ``dst != src``, ``shared_ref(src, dst)`` equals
        ``local`` when ``node_lo <= dst < node_hi`` and ``remote``
        otherwise -- one range comparison instead of a call per
        probe, which matters in the park-mode victim scans.
        """
        cpn = self.cores_per_node
        lo = src // cpn * cpn
        return (lo, lo + cpn, self.local_shared_ref, self._remote_ref)

    def one_sided(self, src: int, dst: int, nbytes: int) -> float:
        """A ``upc_memget``/``upc_memput`` of ``nbytes`` between ranks."""
        if src == dst:
            return 0.0
        cpn = self.cores_per_node
        if src // cpn == dst // cpn:
            return self.onnode_latency + nbytes / self.onnode_bandwidth
        return self.rdma_latency + nbytes / self.rdma_bandwidth + self._am_pen

    def message(self, src: int, dst: int, nbytes: int) -> float:
        """A two-sided message of ``nbytes`` (delivery time once matched)."""
        if src == dst:
            return 0.0
        cpn = self.cores_per_node
        if src // cpn == dst // cpn:
            return self.onnode_latency + nbytes / self.onnode_bandwidth
        return self.msg_latency + nbytes / self.msg_bandwidth

    def lock_cost(self, src: int, home: int) -> float:
        """Uncontended acquire cost of a lock homed at rank ``home``."""
        if src == home:
            return self.local_shared_ref  # still an atomic, never free
        cpn = self.cores_per_node
        if src // cpn == home // cpn:
            return self._lock_local
        return self._lock_remote

    def chunk_transfer(self, src: int, dst: int, nnodes: int) -> float:
        """One-sided transfer of ``nnodes`` tree-node descriptors."""
        if src == dst:
            return 0.0
        nbytes = nnodes * NODE_DESC_BYTES
        cpn = self.cores_per_node
        if src // cpn == dst // cpn:
            return self.onnode_latency + nbytes / self.onnode_bandwidth
        return self.rdma_latency + nbytes / self.rdma_bandwidth + self._am_pen

    def steal_cost_terms(self) -> tuple:
        """``(lock_self, lock_local, lock_remote, local_latency,
        local_bandwidth, remote_latency, remote_bandwidth,
        remote_penalty, desc_bytes)`` for a compiled steal claim.

        From ``src``: :meth:`lock_cost` is ``lock_self`` at ``src``
        itself, ``lock_local`` on its node and ``lock_remote`` off it;
        :meth:`chunk_transfer` of ``n`` descriptors is ``local_latency
        + n * desc_bytes / local_bandwidth`` on the node and
        ``remote_latency + n * desc_bytes / remote_bandwidth +
        remote_penalty`` off it, summed left to right as there.
        """
        return (self.local_shared_ref, self._lock_local, self._lock_remote,
                self.onnode_latency, self.onnode_bandwidth,
                self.rdma_latency, self.rdma_bandwidth, self._am_pen,
                NODE_DESC_BYTES)

    # -- derived ----------------------------------------------------------

    def with_overrides(self, **kw) -> "NetworkModel":
        """A copy with selected cost fields replaced (for ablations)."""
        return replace(self, **kw)

    def sequential_rate(self) -> float:
        """Nodes/second a single thread explores with no load balancing."""
        return 1.0 / self.node_visit_time
