"""Trace-file analysis: merge, Chrome export, hotspot ranking, trees.

A trace directory holds one ``trace-<token>.jsonl`` per participating
process (orchestrator, pool workers, fleet workers on a shared
filesystem).  Merging is trivial by construction -- read every
file, sort by start time -- because span ids are globally unique and
parent links cross process boundaries via ``REPRO_TRACE_PARENT`` /
the remote ``welcome`` frame's trace context.

Three consumers sit on the merged event list:

* :func:`chrome_trace` renders the ``trace_event`` JSON array format
  that ``chrome://tracing`` and Perfetto load directly (complete
  ``"X"`` events for spans, instant ``"i"`` events for points);
* :func:`top_spans` aggregates span durations by ``(name, kind)`` --
  the ``trace top`` CLI sorts it total-descending, so the slowest job
  kind ranks first;
* :func:`span_tree` / :func:`render_tree` rebuild the parent/child
  forest for ``trace view``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple


def read_events(directory) -> List[Dict[str, Any]]:
    """Every span/event line from every ``trace-*.jsonl``, by start time.

    Torn or corrupt lines (a worker killed mid-write) are skipped, not
    fatal -- same durability stance as the sharded store.
    """
    events: List[Dict[str, Any]] = []
    root = Path(directory)
    for path in sorted(root.glob("trace-*.jsonl")):
        try:
            with open(path, "r") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        payload = json.loads(line)
                    except ValueError:
                        continue
                    if isinstance(payload, dict) and payload.get("ev") in (
                        "span",
                        "event",
                    ):
                        events.append(payload)
        except OSError:
            continue
    events.sort(key=lambda ev: (ev.get("t0", 0.0), str(ev.get("id"))))
    return events


def chrome_trace(events: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Render merged events in Chrome ``trace_event`` JSON format.

    Timestamps are microseconds since the earliest event, so the
    viewer's timeline starts at zero.  Span/event ids and parents ride
    along in ``args`` for cross-referencing with the raw trace.
    """
    events = list(events)
    origin = min((ev.get("t0", 0.0) for ev in events), default=0.0)
    out: List[Dict[str, Any]] = []
    for ev in events:
        args = dict(ev.get("attrs") or {})
        args["id"] = ev.get("id")
        if ev.get("parent"):
            args["parent"] = ev["parent"]
        entry: Dict[str, Any] = {
            "name": ev.get("name", "?"),
            "cat": ev.get("ev", "span"),
            "ts": round((ev.get("t0", 0.0) - origin) * 1e6, 1),
            "pid": ev.get("pid", 0),
            "tid": ev.get("tid", "main"),
            "args": args,
        }
        if ev.get("ev") == "span":
            entry["ph"] = "X"
            entry["dur"] = round(ev.get("dur", 0.0) * 1e6, 1)
        else:
            entry["ph"] = "i"
            entry["s"] = "p"  # process-scoped instant
        out.append(entry)
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def top_spans(
    events: Iterable[Dict[str, Any]], name: Optional[str] = None
) -> List[Dict[str, Any]]:
    """Aggregate span durations by ``(span name, kind attribute)``.

    Rows are sorted by total seconds descending (slowest group first),
    which is what ``trace top`` prints.  *name* restricts the
    aggregation to one span name (e.g. ``"job"``).
    """
    groups: Dict[Tuple[str, str], List[float]] = {}
    for ev in events:
        if ev.get("ev") != "span":
            continue
        if name is not None and ev.get("name") != name:
            continue
        attrs = ev.get("attrs") or {}
        key = (str(ev.get("name", "?")), str(attrs.get("kind", "-")))
        groups.setdefault(key, []).append(float(ev.get("dur", 0.0)))
    rows = [
        {
            "name": span_name,
            "kind": kind,
            "count": len(durations),
            "total_s": round(sum(durations), 6),
            "mean_s": round(sum(durations) / len(durations), 6),
            "max_s": round(max(durations), 6),
        }
        for (span_name, kind), durations in groups.items()
    ]
    rows.sort(key=lambda row: (-row["total_s"], row["name"], row["kind"]))
    return rows


def span_tree(
    events: Iterable[Dict[str, Any]],
) -> Tuple[List[Dict[str, Any]], Dict[str, List[Dict[str, Any]]]]:
    """Build the span/event forest: ``(roots, children-by-parent-id)``.

    An event whose parent id never appears (a worker whose orchestrator
    trace is missing) becomes a root rather than vanishing.
    """
    events = list(events)
    known = {ev.get("id") for ev in events}
    children: Dict[str, List[Dict[str, Any]]] = {}
    roots: List[Dict[str, Any]] = []
    for ev in events:
        parent = ev.get("parent")
        if parent and parent in known:
            children.setdefault(parent, []).append(ev)
        else:
            roots.append(ev)
    return roots, children


def render_tree(
    events: Iterable[Dict[str, Any]], max_lines: int = 200
) -> List[str]:
    """Indented text rendering of the span forest (``trace view``)."""
    roots, children = span_tree(events)
    lines: List[str] = []

    def describe(ev: Dict[str, Any]) -> str:
        attrs = ev.get("attrs") or {}
        decor = " ".join(
            f"{key}={attrs[key]}"
            for key in sorted(attrs)
            if isinstance(attrs[key], (str, int, float, bool))
        )
        if ev.get("ev") == "span":
            head = f"{ev.get('name')} [{ev.get('dur', 0.0):.4f}s]"
        else:
            head = f"* {ev.get('name')}"
        tail = f" pid={ev.get('pid')}"
        return f"{head} {decor}{tail}" if decor else f"{head}{tail}"

    def walk(ev: Dict[str, Any], depth: int) -> None:
        if len(lines) >= max_lines:
            return
        lines.append("  " * depth + describe(ev))
        for child in children.get(ev.get("id"), ()):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    if len(lines) >= max_lines:
        lines.append(f"... (truncated at {max_lines} lines)")
    return lines
