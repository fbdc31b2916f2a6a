"""Crash-safe streaming trace files: append-only JSONL, schema v2.

A trace file is JSON Lines: a ``header`` record first (schema version,
trace id), then ``span`` / ``event`` / ``metric`` records in completion
order.  Spans carry ``trace_id`` / ``span_id`` / ``parent_id`` and a
free-form ``name``; the runner's per-task summary spans
(``task.summary``) also carry the ``task`` field the run-diff keys on.
:class:`TraceWriter` appends each record through :mod:`repro.util.jsonl`
(one fsync'd line) — a run killed at any instant leaves a readable
trace covering everything that finished, and a crash can tear at most
the final line.

Concurrent writers are expected: the parent process streams run-level
records while each worker appends its own hierarchical spans to the
same file.  Every record is one short ``O_APPEND`` write well under the
kernel's atomic-append threshold, so lines never interleave.

:func:`read_trace` tolerates torn tail lines and a damaged header and
reports both via :attr:`Trace.truncated`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.obs import clock
from repro.util import jsonl

__all__ = [
    "TRACE_NAME",
    "TRACE_SCHEMA_VERSION",
    "Trace",
    "TraceWriter",
    "read_trace",
]

#: Current trace schema: streamed hierarchical spans.
TRACE_SCHEMA_VERSION = 2

#: File name of the streamed trace inside a run directory.
TRACE_NAME = "trace.jsonl"


class TraceWriter:
    """Append-only, fsync-per-record trace sink (see module docstring)."""

    def __init__(
        self,
        path: Union[str, os.PathLike],
        *,
        trace_id: Optional[str] = None,
        write_header: bool = True,
    ) -> None:
        self.path = os.fspath(path)
        self.trace_id = trace_id or clock.new_id()
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        if write_header:
            # Only the heading writer repairs: it opens the file before
            # any worker appends, so no in-flight append looks torn.
            jsonl.repair_torn_tail(self.path)
            self.emit(
                {
                    "type": "header",
                    "schema": TRACE_SCHEMA_VERSION,
                    "trace_id": self.trace_id,
                    "ts": round(clock.now(), 6),
                }
            )

    def emit(self, record: Dict[str, Any]) -> None:
        """Append one record now: open, write one line, flush, fsync.

        Opening per record keeps the writer safe to share through
        ``fork`` and cheap to reconstruct in workers; the trace volume
        (tens of spans per task) makes the syscall cost irrelevant next
        to any experiment.
        """
        jsonl.append(self.path, jsonl.encode(record))


@dataclass
class Trace:
    """One parsed trace file."""

    schema: int = 0
    trace_id: Optional[str] = None
    records: List[Dict[str, Any]] = field(default_factory=list)
    truncated: bool = False  #: a torn or damaged line was skipped

    @property
    def spans(self) -> List[Dict[str, Any]]:
        return [r for r in self.records if r.get("type") == "span"]

    @property
    def events(self) -> List[Dict[str, Any]]:
        return [r for r in self.records if r.get("type") == "event"]

    @property
    def metrics(self) -> List[Dict[str, Any]]:
        return [r for r in self.records if r.get("type") == "metric"]

    @property
    def task_spans(self) -> Dict[str, Dict[str, Any]]:
        """Latest task-summary span per task id (the run-diff substrate)."""
        out: Dict[str, Dict[str, Any]] = {}
        for rec in self.spans:
            task = rec.get("task")
            if isinstance(task, str):
                out[task] = rec
        return out


def read_trace(path: Union[str, os.PathLike]) -> Trace:
    """Load a trace file; tolerant of a torn final line.

    Raises ``FileNotFoundError`` when *path* does not exist; any other
    damage (torn tail, mid-file garbage, a header whose ``schema`` is
    not an integer, no header at all) degrades gracefully and sets
    :attr:`Trace.truncated` where a record was lost — observability
    must never be the thing that refuses to observe a crashed run.
    """
    records, damaged = jsonl.read(path)
    trace = Trace(truncated=damaged)
    for rec in records:
        if rec.get("type") != "header":
            trace.records.append(rec)
            continue
        schema = rec.get("schema")
        if type(schema) is int:
            trace.schema = schema
        else:
            trace.truncated = True
        trace.trace_id = rec.get("trace_id")
    return trace
