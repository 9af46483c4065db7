"""JSONL event-log exporter and loader.

One JSON object per line: a ``{"meta": {...}}`` header (when run
metadata is available) followed by one ``{"t", "rank", "kind", "args"}``
object per event in chronological order.  The format is the diff- and
grep-friendly twin of the Chrome export: two runs' logs can be
compared with ``diff``, filtered with ``grep '"steal'``, and loaded
back losslessly with :func:`load_jsonl` for offline analysis
(``tools/trace_report.py`` is built on exactly that round trip).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import TraceFormatError
from repro.obs.events import EVENT_SCHEMA, FIELD_TYPES, ObsEvent

__all__ = ["dump_jsonl", "load_jsonl", "to_jsonl_lines"]


def to_jsonl_lines(events: Iterable[ObsEvent],
                   meta: Optional[Dict[str, Any]] = None) -> List[str]:
    """The log's lines (no trailing newlines), header first."""
    lines: List[str] = []
    if meta:
        lines.append(json.dumps({"meta": meta}, sort_keys=True))
    for ev in events:
        lines.append(json.dumps(ev.to_dict(), sort_keys=True))
    return lines


def dump_jsonl(path: str, events: Iterable[ObsEvent],
               meta: Optional[Dict[str, Any]] = None) -> str:
    """Write the JSONL event log to ``path``; returns the path."""
    with open(path, "w") as fh:
        for line in to_jsonl_lines(events, meta):
            fh.write(line)
            fh.write("\n")
    return path


def _check(what: str, value: Any, want: type) -> None:
    # A JSON number without a fraction is a fine float.
    if type(value) is want or (want is float and type(value) is int):
        return
    raise ValueError(f"{what} is {type(value).__name__} {value!r}, "
                     f"not {want.__name__}")


def _decode(line: str) -> Any:
    try:
        return json.loads(line)
    except ValueError as exc:
        raise ValueError(f"not JSON ({exc})") from None


def _event(obj: Any) -> ObsEvent:
    """The record one log line describes; ``ValueError`` says why not."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("neither a meta header nor an event (no 'kind')")
    kind = obj["kind"]
    _check("kind", kind, str)
    if kind not in EVENT_SCHEMA:
        raise ValueError(f"unknown event kind {kind!r}")
    declared = EVENT_SCHEMA[kind][0]
    args = obj.get("args", {})
    _check("args", args, dict)
    for key, value in args.items():
        if key not in declared:
            raise ValueError(f"{kind} declares no field {key!r} "
                             f"(fields: {', '.join(declared) or 'none'})")
        _check(f"{kind} field {key!r}", value, FIELD_TYPES[key])
    names = declared[:len(args)]
    if set(args) != set(names):
        raise ValueError(f"{kind} carries {', '.join(sorted(args))}: not "
                         f"a prefix of its fields ({', '.join(declared)})")
    _check("t", obj.get("t"), float)
    _check("rank", obj.get("rank"), int)
    return ObsEvent(obj["t"], obj["rank"], kind,
                    tuple(args[name] for name in names))


def load_jsonl(path: str) -> Tuple[Dict[str, Any], List[ObsEvent]]:
    """Load a JSONL event log: ``(meta, events)``.

    ``meta`` is ``{}`` when the log has no header line.  Inverse of
    :func:`dump_jsonl`: ``load_jsonl(dump_jsonl(p, evs, m)) == (m, evs)``.
    A line that is not JSON, names a kind :data:`EVENT_SCHEMA` does not
    declare, or carries an undeclared or mistyped field raises
    :class:`~repro.errors.TraceFormatError` naming the line.
    """
    meta: Dict[str, Any] = {}
    events: List[ObsEvent] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = _decode(line)
                if isinstance(obj, dict) and "meta" in obj \
                        and "kind" not in obj:
                    meta = obj["meta"]
                else:
                    events.append(_event(obj))
            except ValueError as exc:
                raise TraceFormatError(f"{path}:{lineno}: {exc}") from None
    return meta, events
