"""Trace summarization: span trees, critical path, run digest.

Turns a parsed :class:`~repro.obs.trace.Trace` into the human-readable
views ``python -m repro.obs summarize`` prints: a digest line (task
counts, cache ratio, retries, total wall), and the span tree with the
*critical path* — the chain of spans that dominated wall time, found by
walking from each root to its most expensive child — marked ``*``.
Id-less spans (older recorded traces, such as the committed perf
baseline) cannot have children, so they render as a flat list of
roots; the digest keys on each span's ``task`` field either way.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.obs.trace import Trace

__all__ = ["critical_path", "digest", "render_tree", "summarize_trace"]


def digest(task_spans: Dict[str, Dict[str, Any]]) -> str:
    """One-line run digest over the task-summary spans."""
    if not task_spans:
        return "trace: no tasks recorded"
    spans = list(task_spans.values())
    by_status: Dict[str, int] = {}
    for span in spans:
        status = str(span.get("status", "?"))
        by_status[status] = by_status.get(status, 0) + 1
    hits = sum(1 for s in spans if s.get("cache_hit"))
    retries = sum(int(s.get("retries") or 0) for s in spans)
    wall = sum(float(s.get("wall_s") or 0.0) for s in spans)
    parts = [
        f"{len(spans)} task(s): " + ", ".join(f"{n} {st}" for st, n in sorted(by_status.items())),
        f"cache {hits} hit / {len(spans) - hits} miss",
        f"{retries} retrie(s)",
        f"{wall:.1f}s total task wall time",
    ]
    return "trace: " + "; ".join(parts)


def _children_index(spans: List[Dict[str, Any]]) -> Dict[Optional[str], List[Dict[str, Any]]]:
    """Map parent span id -> children, roots under the ``None`` key."""
    ids = {s.get("span_id") for s in spans if s.get("span_id")}
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent not in ids:
            parent = None  # orphan (parent lost to a crash) renders at root
        children.setdefault(parent, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: (float(s.get("ts") or 0.0), str(s.get("name"))))
    return children


def critical_path(trace: Trace) -> List[Dict[str, Any]]:
    """The spans on the wall-time-dominant root-to-leaf chain.

    Starts at the most expensive root and repeatedly descends into the
    most expensive child.  Ties break on start time (earlier wins) so
    the path is deterministic for a fixed trace file.
    """
    children = _children_index(trace.spans)

    def heaviest(candidates: List[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
        if not candidates:
            return None
        return max(
            candidates,
            key=lambda s: (float(s.get("wall_s") or 0.0), -float(s.get("ts") or 0.0)),
        )

    path: List[Dict[str, Any]] = []
    node = heaviest(children.get(None, []))
    while node is not None:
        path.append(node)
        # An id-less span cannot have children; descending on
        # its None id would walk the root set again, forever.
        node_id = node.get("span_id")
        node = heaviest(children.get(node_id, [])) if node_id else None
    return path


def render_tree(trace: Trace, *, max_name: int = 48) -> str:
    """Render the span hierarchy, critical path marked with ``*``."""
    spans = trace.spans
    if not spans:
        return "(no spans)"
    children = _children_index(spans)
    on_path: Set[int] = {id(s) for s in critical_path(trace)}
    lines: List[str] = []

    def walk(parent: Optional[str], indent: str) -> None:
        siblings = children.get(parent, [])
        for i, span in enumerate(siblings):
            last = i == len(siblings) - 1
            branch = "" if parent is None and indent == "" else ("└─ " if last else "├─ ")
            name = str(span.get("name"))[:max_name]
            wall = float(span.get("wall_s") or 0.0)
            status = str(span.get("status", "ok"))
            mark = " *" if id(span) in on_path else ""
            suffix = "" if status == "ok" else f" [{status}]"
            lines.append(f"{indent}{branch}{name} {wall:.3f}s{suffix}{mark}")
            child_indent = indent + ("" if branch == "" else ("   " if last else "│  "))
            span_id = span.get("span_id")
            if span_id:  # id-less spans have no children by construction
                walk(span_id, child_indent)

    walk(None, "")
    return "\n".join(lines)


def summarize_trace(trace: Trace) -> str:
    """The full ``repro.obs summarize`` report body."""
    head = (
        f"trace {trace.trace_id or '<no id>'} (schema v{trace.schema}): "
        f"{len(trace.spans)} span(s), {len(trace.events)} event(s), "
        f"{len(trace.metrics)} metric record(s)"
    )
    if trace.truncated:
        head += " [torn tail tolerated]"
    return "\n".join([head, digest(trace.task_spans), "", render_tree(trace)])
