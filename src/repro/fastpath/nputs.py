"""numpy-vectorized UTS tree construction (exact by construction).

Vectorizing tree expansion is only admissible where it cannot change a
single node: the schedule gates (`bench_* --check`) assume the tree is
bit-identical across backends.  Two operations qualify because they
are pure *integer* arithmetic with wraparound semantics numpy
reproduces exactly:

* binomial child counts -- ``rand(state) < thresh`` where ``rand`` is
  the top 31 bits of the state (a ``uint32``/``uint64`` compare);
* SplitMix64 child spawning -- the ``_mix64`` finalizer over
  ``uint64`` states (numpy's modular arithmetic == Python's ``& _M64``).

The geometric shapes stay scalar on purpose: their child counts go
through ``math.log``/``math.sin`` and a vectorized transcendental that
differs by one ulp would silently fork the whole subtree below it.

SHA-1 digests are still computed per child via ``hashlib`` (there is
no batched multi-digest API), but the level-order builder here removes
the per-node Python dispatch around them.  ``sha1-pure`` is excluded:
that engine exists to cross-check the reference implementation, so it
must keep exercising the from-scratch scalar code.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from typing import List

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatch
    _np = None

__all__ = [
    "HAVE_NUMPY",
    "OVERFLOW",
    "batch_rand_sha1",
    "batch_rand_splitmix",
    "batch_spawn_splitmix",
    "fast_build",
]

HAVE_NUMPY = _np is not None

#: Sentinel: the tree exceeds the node cap (caller must not fall back
#: to the scalar builder -- it would just re-discover the overflow).
OVERFLOW = object()

_RAND_MASK = 0x7FFFFFFF
_GAMMA = 0x9E3779B97F4A7C15


def batch_rand_sha1(states: List[bytes]) -> "object":
    """``rand()`` for a batch of 20-byte SHA-1 states.

    Each state is five big-endian 32-bit words; ``rand`` is the first
    word masked to 31 bits -- an exact integer view of the
    concatenated digests.
    """
    arr = _np.frombuffer(b"".join(states), dtype=">u4")
    return arr[::5] & _np.uint32(_RAND_MASK)


def batch_rand_splitmix(states: "object") -> "object":
    """``rand()`` (top 31 bits) for a uint64 array of splitmix states."""
    return states >> _np.uint64(33)


def _mix64(z: "object") -> "object":
    """SplitMix64 finalizer over a uint64 array (wraparound is exact)."""
    z = (z ^ (z >> _np.uint64(30))) * _np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _np.uint64(27))) * _np.uint64(0x94D049BB133111EB)
    return z ^ (z >> _np.uint64(31))


def batch_spawn_splitmix(state: int, n: int) -> "object":
    """Child states ``spawn(state, 0..n-1)`` as a uint64 array."""
    idx = _np.arange(1, n + 1, dtype=_np.uint64)
    return _mix64(_np.uint64(state) + idx * _np.uint64(_GAMMA))


def fast_build(base, cap: int, roots=None):
    """Level-order expansion matching ``uts.materialized.expand`` exactly.

    Returns the ``(n_kids, size, max_depth)`` the scalar depth-first
    builder produces -- the level-order counts permuted to visit order
    -- :data:`OVERFLOW` when the expansion exceeds ``cap`` nodes, or
    None when this builder has no kernel for the tree's shape/engine
    (caller falls back to the scalar loop).  ``roots`` are the height-0
    nodes of level 0, laid out one subtree after the other (a service
    stream's task roots); default: the tree's own root.
    """
    if _np is None or not base._is_binomial:
        return None
    name = base.engine.name
    if name not in ("sha1", "splitmix"):
        return None
    m = base._m
    thresh = base._thresh
    # Level 0: b0 children each, unconditionally (scalar path).
    kids = [base.children(r) for r in ([base.root()] if roots is None
                                       else roots)]
    states = [s for ks in kids for s, _ in ks]
    levels = [_np.array([len(ks) for ks in kids], dtype=_np.int32)]
    total = len(kids) + len(states)
    if name == "sha1":
        suffixes = [struct.pack(">I", i) for i in range(m)]
        sha1 = hashlib.sha1
    else:
        states = _np.array(states, dtype=_np.uint64)
        idx = _np.arange(1, m + 1, dtype=_np.uint64) * _np.uint64(_GAMMA)
    while len(states) and total <= cap:
        if name == "sha1":
            interior = batch_rand_sha1(states) < _np.uint32(thresh)
            states = [sha1(s + sfx).digest()
                      for s, keep in zip(states, interior.tolist()) if keep
                      for sfx in suffixes]
        else:
            interior = batch_rand_splitmix(states) < thresh
            states = _mix64(states[interior][:, None] + idx[None, :]).ravel()
        levels.append(interior * _np.int32(m))
        total += len(states)
    return _preorder(levels, total) if total <= cap else OVERFLOW


def _preorder(levels: list, total: int):
    """Per-level child counts (each level in the order its parents list
    their children) -> ``(n_kids, size, max_depth)`` in visit order.

    Counts suffice: a level's children sit contiguously in the next,
    so subtree sizes are segment sums taken bottom-up, and a child's
    visit position is its parent's + 1 + the sizes of the siblings
    listed after it (the search pops those first).
    """
    def ends_and_cum(lv):
        # One past each node's last child in level lv + 1, and that
        # level's running size total (per pass: not held for all levels).
        return (_np.cumsum(levels[lv]),
                _np.concatenate(([0], _np.cumsum(sizes[lv + 1]))))

    sizes = [_np.ones(len(kids), dtype=_np.int32) for kids in levels]
    for lv in range(len(levels) - 2, -1, -1):
        end, cum = ends_and_cum(lv)
        sizes[lv] += cum[end] - cum[end - levels[lv]]
    n_kids = _np.empty(total, dtype=_np.int32)
    size = _np.empty(total, dtype=_np.int32)
    # Level 0 tiles the layout: each root starts where the last ends.
    pos = _np.cumsum(sizes[0], dtype=_np.int64) - sizes[0]
    for lv, kids in enumerate(levels):
        n_kids[pos] = kids
        size[pos] = sizes[lv]
        if lv + 1 < len(levels):
            end, cum = ends_and_cum(lv)
            parent = _np.repeat(_np.arange(len(kids)), kids)
            pos = pos[parent] + 1 + cum[end[parent]] - cum[1:]
    return (array("i", n_kids.tobytes()), array("i", size.tobytes()),
            len(levels) - 1)
