"""Crash-safe run journal: append-only JSONL of task outcomes.

The runner writes one ``journal.jsonl`` into each stamped run
directory: a ``meta`` record first (seed, quick flag, experiment ids),
then one ``task`` record per terminal task outcome, appended *as each
task finishes* — so a run killed at any instant leaves a journal that
names exactly what completed.  ``--resume <run-dir>`` reloads it and
re-executes only tasks not recorded ``ok``.

Records go through :mod:`repro.util.jsonl` (one fsync'd line each): a
crash can tear at most the final line, and :meth:`RunJournal.load`
skips any line that does not decode rather than failing the resume.
Appends never rewrite earlier records, so the journal doubles as a run
audit trail — later records for the same task supersede earlier ones
(a retry after ``--resume``, for example).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.util import jsonl

__all__ = ["JOURNAL_NAME", "RunJournal"]

#: File name of the journal inside a run directory.
JOURNAL_NAME = "journal.jsonl"


class RunJournal:
    """Append-only journal of one run's task outcomes."""

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        jsonl.repair_torn_tail(self.path)

    def meta(self, **fields: Any) -> None:
        """Record run-level metadata (seed, quick, ids) for ``--resume``."""
        jsonl.append(self.path, jsonl.encode({"type": "meta", **fields}))

    def record(
        self,
        task: str,
        *,
        status: str,
        key: Optional[str] = None,
        attempts: int = 0,
        wall_s: float = 0.0,
        compute_s: Optional[float] = None,
    ) -> None:
        """Record one terminal task outcome.

        *compute_s* is the payload's original compute time; a cache hit
        passes it so the record still says how long the task takes
        (its own ``wall_s`` is 0), which keeps longest-first
        scheduling informed after a warm run.
        """
        record = {
            "type": "task",
            "task": task,
            "status": status,
            "key": key,
            "attempts": attempts,
            "wall_s": round(wall_s, 6),
        }
        if isinstance(compute_s, (int, float)):
            record["compute_s"] = round(compute_s, 6)
        jsonl.append(self.path, jsonl.encode(record))

    @staticmethod
    def load(path: Union[str, os.PathLike]) -> Tuple[Dict[str, Any], Dict[str, Dict[str, Any]]]:
        """Read a journal back as ``(meta, entries)``.

        ``entries`` maps each task id to its *latest* record.  A missing
        file yields ``({}, {})``; undecodable (torn) lines are skipped.
        """
        meta: Dict[str, Any] = {}
        entries: Dict[str, Dict[str, Any]] = {}
        try:
            records, _damaged = jsonl.read(path)
        except OSError:
            return meta, entries
        for record in records:
            if record.get("type") == "meta":
                meta.update({k: v for k, v in record.items() if k != "type"})
            elif record.get("type") == "task" and isinstance(record.get("task"), str):
                entries[record["task"]] = record
        return meta, entries
