"""The split DFS stack (Figure 2 of the paper).

Each thread's depth-first stack is partitioned into a *local* region --
manipulated only by the owner, lock-free in every algorithm -- and a
*shared* region organized as whole chunks of ``k`` nodes, which is the
only part other threads ever see.  ``release`` moves the *bottom* ``k``
nodes of the local region into the shared region (the nodes nearest the
root, i.e. the oldest work, which tends to be the largest subtrees);
``reacquire`` moves the most recently released chunk back; steals take
the oldest chunk(s).

Who is allowed to touch the shared region differs per algorithm (lock
vs. owner-only); the stack itself just provides the moves and tracks
conservation counters so tests can prove no node is lost or duplicated.
"""

from __future__ import annotations

from typing import List

from repro.errors import ProtocolError
from repro.uts.tree import Node

__all__ = ["SplitStack"]


class SplitStack:
    """One thread's split DFS stack."""

    __slots__ = ("local", "shared", "pushes", "pops", "released_nodes",
                 "reacquired_nodes", "stolen_from_me_nodes")

    def __init__(self) -> None:
        #: Owner-private region; top of stack is the end of the list.
        self.local: List[Node] = []
        #: Stealable region: chunks ordered oldest (first) to newest
        #: (last).  A list, not a deque: an empty deque is 760 bytes, and
        #: most of a large machine's shared regions are empty.
        self.shared: List[List[Node]] = []
        self.pushes = 0
        self.pops = 0
        self.released_nodes = 0
        self.reacquired_nodes = 0
        self.stolen_from_me_nodes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SplitStack local={len(self.local)} "
                f"shared={len(self.shared)}x chunks>")

    # -- sizes ------------------------------------------------------------

    @property
    def local_size(self) -> int:
        return len(self.local)

    @property
    def shared_chunks(self) -> int:
        return len(self.shared)

    @property
    def shared_nodes(self) -> int:
        return sum(map(len, self.shared))

    @property
    def total_nodes(self) -> int:
        return len(self.local) + self.shared_nodes

    @property
    def is_empty(self) -> bool:
        return not self.local and not self.shared

    # -- owner-only local-region ops ---------------------------------------

    def push(self, node: Node) -> None:
        self.local.append(node)
        self.pushes += 1

    def push_many(self, nodes: List[Node]) -> None:
        self.local.extend(nodes)
        self.pushes += len(nodes)

    def pop(self) -> Node:
        if not self.local:
            raise ProtocolError("pop from empty local region")
        self.pops += 1
        return self.local.pop()

    # -- local <-> shared moves ---------------------------------------------

    def release(self, k: int) -> None:
        """Move the bottom ``k`` local nodes into the shared region."""
        if len(self.local) < k:
            raise ProtocolError(
                f"release({k}) with only {len(self.local)} local nodes"
            )
        chunk = self.local[:k]
        del self.local[:k]
        self.shared.append(chunk)
        self.released_nodes += k

    def reacquire(self) -> int:
        """Move the newest shared chunk back to the local region's bottom.

        Returns the number of nodes moved.
        """
        if not self.shared:
            raise ProtocolError("reacquire from empty shared region")
        chunk = self.shared.pop()
        self.local[0:0] = chunk
        self.reacquired_nodes += len(chunk)
        return len(chunk)

    # -- steal-side ops -------------------------------------------------------

    def steal_chunks(self, n: int) -> List[List[Node]]:
        """Remove the ``n`` oldest shared chunks (for transfer to a thief)."""
        if n < 1 or n > len(self.shared):
            raise ProtocolError(
                f"steal_chunks({n}) with {len(self.shared)} chunks available"
            )
        chunks = self.shared[:n]
        del self.shared[:n]
        self.stolen_from_me_nodes += sum(map(len, chunks))
        return chunks
