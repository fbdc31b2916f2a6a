"""History-driven task ordering: longest-task-first from prior runs.

With ``--jobs N`` the makespan of a batch is dominated by whatever long
task gets submitted last — the classic LPT observation.  The journal
(and the streamed trace) of every previous run already records each
task's wall time, so fresh runs can feed the executor a
longest-task-first submission order for free.

:func:`historical_wall_times` harvests per-task wall seconds from a run
directory's ``journal.jsonl``; :func:`longest_first` orders task ids by
that history.  Tasks with no history sort *first* (an unknown task may
be the longest — submitting it early is the conservative bet) and both
groups preserve their given relative order, so with no history at all
the order is exactly the input order: deterministic, and identical to
the pre-scheduling behaviour.
"""

from __future__ import annotations

import os
from typing import Dict, Mapping, Optional, Sequence, Union

from repro.runtime.journal import JOURNAL_NAME, RunJournal

__all__ = ["historical_wall_times", "longest_first"]


def historical_wall_times(run_dir: Union[str, os.PathLike]) -> Dict[str, float]:
    """Per-task wall seconds from *run_dir*'s journal (``{}`` if none).

    Only ``ok`` records count: a failed attempt's wall time measures the
    failure, not the task.  A cache hit journals ``wall_s`` 0, so its
    record's ``compute_s`` (the payload's original compute time) stands
    in — a warm run keeps the history of the cold run before it.
    Symlinked run dirs (``latest``) resolve like any other path; a
    missing or torn journal yields what it can.
    """
    _meta, entries = RunJournal.load(os.path.join(os.fspath(run_dir), JOURNAL_NAME))
    history: Dict[str, float] = {}
    for task, entry in entries.items():
        if entry.get("status") != "ok":
            continue
        try:
            wall = float(entry.get("wall_s") or entry.get("compute_s") or 0.0)
        except (TypeError, ValueError):
            continue
        if wall > 0.0:
            history[task] = wall
    return history


def longest_first(
    ids: Sequence[str], history: Optional[Mapping[str, float]] = None
) -> list:
    """Order *ids* longest-known-task-first (see module docstring).

    The sort is stable: unknown tasks keep their relative input order at
    the front, known tasks follow by descending historical wall time
    (input order breaking ties), so the result is a pure function of
    ``(ids, history)``.
    """
    history = history or {}
    known = [i for i in ids if i in history]
    unknown = [i for i in ids if i not in history]
    known.sort(key=lambda i: -history[i])  # stable: ties keep input order
    return unknown + known
