"""Durable JSON Lines logs: one append, one tail repair, one replay.

The runner's ``journal.jsonl``, the service's ``jobs.jsonl`` and every
``trace.jsonl`` are the same kind of file: one JSON object per line,
appended and fsynced, so a crash at any instant tears at most the line
being written.  Which record wins on replay, and what a record means,
belongs to the callers; this module only knows lines.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Mapping, Tuple, Union

__all__ = ["append", "encode", "read", "repair_torn_tail"]


def encode(record: Mapping[str, Any]) -> str:
    """One record as one newline-terminated JSON line (sorted keys).

    Unencodable values are stringified: a log write must never be the
    thing that fails a run.
    """
    return json.dumps(record, sort_keys=True, default=str) + "\n"


def append(path: Union[str, os.PathLike], text: str) -> None:
    """Append *text* durably: open ``"a"``, one ``write``, flush, fsync.

    *text* is one or more :func:`encode` lines (several make one group
    commit).  Opening per call keeps writers safe to share through
    ``fork``.
    """
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())


def repair_torn_tail(path: Union[str, os.PathLike]) -> bool:
    """Terminate a torn final line so future appends stay on fresh lines.

    Readers skip the undecodable fragment a crash mid-append leaves —
    but a *writer* appending after it would glue its record onto the
    fragment, losing a line its fsync reported durable.  Every log
    writer calls this before its first append (while it is the only
    writer); returns whether a repair was needed.
    """
    try:
        with open(path, "rb+") as fh:
            fh.seek(0, os.SEEK_END)
            if fh.tell() == 0:
                return False
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) == b"\n":
                return False
            fh.write(b"\n")
            fh.flush()
            os.fsync(fh.fileno())
            return True
    except OSError:  # no log yet: nothing to repair
        return False


def read(path: Union[str, os.PathLike]) -> Tuple[List[Dict[str, Any]], bool]:
    """Replay *path* as ``(records, damaged)``.

    ``records`` are the lines that decode to JSON objects, in order;
    ``damaged`` is true when any non-blank line was skipped (a torn
    tail, mid-file garbage, a non-object value).  Raises ``OSError``
    for a missing file: callers decide whether absence means empty.
    """
    records: List[Dict[str, Any]] = []
    damaged = False
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            if isinstance(record, dict):
                records.append(record)
            else:
                damaged = True
    return records, damaged
