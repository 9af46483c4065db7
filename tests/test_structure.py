"""Structural guards over ``src/repro/`` (AST only, no imports of the
code under test beyond the one MRO check; well under a second).

Each assertion pins a property a past PR paid to establish, so the day
a copy or an ungated format comes back every CI leg fails -- instead of
the next re-anchor finding it:

* Figure 1's Working state is written once
  (``AlgorithmBase.working_phase``); a variant states what differs as
  switches the loop reads, never as a second loop.
* Trace detail strings are built only behind a ``tracer.enabled`` test
  (``docs/performance.md``, "engine hot path"): an untraced run must
  not format and throw away an f-string per event.
* ``ws-fencefree`` has no locks, so it does not inherit the lock-based
  machinery (and with it the compiled ``LockPhase`` binder).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_one_working_phase_definition():
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == "working_phase"
    ]
    assert len(found) == 1 and found[0].startswith("ws/algorithms/base.py:"), \
        found


def _reads_enabled(test: ast.expr) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == "enabled"
               for n in ast.walk(test))


def _has_fstring(call: ast.Call) -> bool:
    args = list(call.args) + [kw.value for kw in call.keywords]
    return any(isinstance(n, ast.JoinedStr)
               for arg in args for n in ast.walk(arg))


def _ungated_formats(tree: ast.AST):
    """Trace calls carrying an f-string outside an ``if ...enabled``."""
    hits = []

    def visit(node: ast.AST, gated: bool) -> None:
        if isinstance(node, ast.If):
            inner = gated or _reads_enabled(node.test)
            for child in node.body:
                visit(child, inner)
            for child in node.orelse:
                visit(child, gated)
            return
        if (isinstance(node, ast.Call) and not gated
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("trace", "_trace", "emit")
                and _has_fstring(node)):
            hits.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, gated)

    visit(tree, False)
    return hits


def test_trace_details_are_formatted_only_when_tracing():
    found = [f"{path.relative_to(SRC)}:{line}"
             for path, tree in _modules()
             for line in _ungated_formats(tree)]
    assert found == [], (
        f"{len(found)} trace call(s) build an f-string detail outside an "
        f"`if tracer.enabled` test: {found}")


def test_fencefree_is_not_lock_based():
    from repro.ws.algorithms.fencefree import WsFenceFree
    from repro.ws.algorithms.lock_based import LockBasedAlgorithm
    assert LockBasedAlgorithm not in WsFenceFree.__mro__
