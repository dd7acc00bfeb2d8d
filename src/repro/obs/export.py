"""Trace export: Chrome-trace/Perfetto JSON and a terminal span tree.

``to_chrome_trace`` converts the span documents of one trace into the
Chrome Trace Event JSON object format (loadable in ``chrome://tracing``
and Perfetto): complete ``"X"`` events with microsecond wall-clock
``ts``/``dur``, one ``pid`` per service/node (named via ``"M"``
process-name metadata events), and span events as ``"i"`` instants.
Within a pid, root spans get greedily packed non-overlapping ``tid``
lanes and descendants inherit their root's lane so nesting renders
correctly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["to_chrome_trace", "render_span_tree", "sort_spans"]


def sort_spans(spans: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return sorted(spans, key=lambda doc: doc.get("start_unix_s") or 0.0)


def _lane_assignment(spans: List[Dict[str, Any]]) -> Dict[Optional[str], int]:
    """Map span_id -> tid, one greedy interval packing per service."""
    by_id = {doc.get("span_id"): doc for doc in spans if doc.get("span_id")}

    def root_of(doc: Dict[str, Any]) -> Dict[str, Any]:
        seen = set()
        while True:
            parent = by_id.get(doc.get("parent_id"))
            if parent is None or parent.get("service") != doc.get("service"):
                return doc
            if id(parent) in seen:  # defensive: corrupt parent loop
                return doc
            seen.add(id(parent))
            doc = parent

    lanes: Dict[Optional[str], int] = {}
    by_service: Dict[str, List[Dict[str, Any]]] = {}
    for doc in spans:
        by_service.setdefault(doc.get("service") or "repro", []).append(doc)
    for docs in by_service.values():
        roots: List[Dict[str, Any]] = []
        seen_roots = set()
        for doc in docs:
            root = root_of(doc)
            marker = root.get("span_id") or id(root)
            if marker not in seen_roots:
                seen_roots.add(marker)
                roots.append(root)
        # Greedy packing: earliest-starting root takes the first lane
        # that is free at its start time.
        lane_free_at: List[float] = []
        root_lane: Dict[Any, int] = {}
        for root in sort_spans(roots):
            start = root.get("start_unix_s") or 0.0
            end = start + (root.get("duration_s") or 0.0)
            for lane, free_at in enumerate(lane_free_at):
                if start >= free_at:
                    lane_free_at[lane] = end
                    root_lane[root.get("span_id") or id(root)] = lane
                    break
            else:
                root_lane[root.get("span_id") or id(root)] = len(lane_free_at)
                lane_free_at.append(end)
        for doc in docs:
            root = root_of(doc)
            lanes[doc.get("span_id")] = root_lane.get(
                root.get("span_id") or id(root), 0
            )
    return lanes


def to_chrome_trace(spans: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Convert one trace's span documents to a Chrome-trace JSON object."""
    ordered = sort_spans(spans)
    services: List[str] = []
    for doc in ordered:
        service = doc.get("service") or "repro"
        if service not in services:
            services.append(service)
    pid_of = {service: pid + 1 for pid, service in enumerate(services)}
    lanes = _lane_assignment(ordered)

    events: List[Dict[str, Any]] = []
    for service, pid in pid_of.items():
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "name": "process_name",
                "args": {"name": service},
            }
        )
    for doc in ordered:
        pid = pid_of.get(doc.get("service") or "repro", 1)
        tid = lanes.get(doc.get("span_id"), 0)
        start_s = doc.get("start_unix_s") or 0.0
        ts = start_s * 1e6
        args: Dict[str, Any] = {
            "span_id": doc.get("span_id"),
            "parent_id": doc.get("parent_id"),
            "status": doc.get("status", "ok"),
        }
        if doc.get("count", 1) != 1:
            args["count"] = doc["count"]
        if doc.get("status_message"):
            args["status_message"] = doc["status_message"]
        args.update(doc.get("attributes") or {})
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "name": doc.get("name", "span"),
                "cat": doc.get("service") or "repro",
                "ts": ts,
                "dur": (doc.get("duration_s") or 0.0) * 1e6,
                "args": args,
            }
        )
        for event in doc.get("events") or []:
            events.append(
                {
                    "ph": "i",
                    "pid": pid,
                    "tid": tid,
                    "name": event.get("name", "event"),
                    "cat": doc.get("service") or "repro",
                    "ts": ts + (event.get("offset_s") or 0.0) * 1e6,
                    "s": "t",
                    "args": dict(event.get("attributes") or {}),
                }
            )
    return {"displayTimeUnit": "ms", "traceEvents": events}


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 0.001:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


_ANNOTATED_EVENTS = ("retry", "backpressure", "coalesced")


def _span_line(doc: Dict[str, Any]) -> str:
    parts = [doc.get("name", "span")]
    duration = doc.get("duration_s") or 0.0
    parts.append(_format_duration(duration))
    count = doc.get("count", 1)
    if count != 1:
        parts.append(f"x{count}")
    parts.append(f"[{doc.get('service') or 'repro'}]")
    if doc.get("status") != "ok":
        message = doc.get("status_message") or ""
        parts.append(f"!{doc.get('status')}" + (f": {message}" if message else ""))
    attrs = doc.get("attributes") or {}
    for key in ("attempt", "kind", "cached"):
        if key in attrs:
            parts.append(f"{key}={attrs[key]}")
    notes = [
        event.get("name")
        for event in doc.get("events") or []
        if event.get("name") in _ANNOTATED_EVENTS
    ]
    if notes:
        parts.append("<" + ",".join(notes) + ">")
    return " ".join(str(part) for part in parts)


def render_span_tree(spans: Sequence[Dict[str, Any]]) -> str:
    """Render a trace as an indented tree with durations/annotations."""
    ordered = sort_spans(spans)
    by_id = {doc["span_id"]: doc for doc in ordered if doc.get("span_id")}
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    roots: List[Dict[str, Any]] = []
    for doc in ordered:
        parent = doc.get("parent_id")
        if parent and parent in by_id:
            children.setdefault(parent, []).append(doc)
        else:
            roots.append(doc)

    lines: List[str] = []

    def walk(doc: Dict[str, Any], prefix: str, is_last: bool, top: bool) -> None:
        if top:
            lines.append(_span_line(doc))
            child_prefix = ""
        else:
            branch = "`- " if is_last else "|- "
            lines.append(prefix + branch + _span_line(doc))
            child_prefix = prefix + ("   " if is_last else "|  ")
        kids = children.get(doc.get("span_id"), [])
        for index, kid in enumerate(kids):
            walk(kid, child_prefix, index == len(kids) - 1, False)

    for index, root in enumerate(roots):
        walk(root, "", index == len(roots) - 1, True)
    return "\n".join(lines)
