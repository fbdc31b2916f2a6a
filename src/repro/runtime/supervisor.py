"""One supervised attempt in one killable child process.

Both runtimes run every out-of-process attempt through :class:`Attempt`:
:class:`~repro.runtime.executor.DagExecutor` with ``jobs >= 2`` and the
service's :class:`~repro.service.jobs.JobRunner`.  An attempt starts its
child from :data:`CONTEXT`; the child ties its life to the parent's,
calls ``fn(*args)`` and sends the outcome up a one-way pipe.  The parent
waits on the pipe and the process sentinel together, so it wakes the
moment either is ready, and enforces a hard deadline and the caller's
stop predicate by SIGKILL plus reap of that one child.  A process start
that fails (fork's ``EAGAIN``/``ENOMEM``) is a failed attempt like any
other, never an exception.  :func:`backoff_delay` is the one retry delay
both runtimes share.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable, Iterable, Optional, Sequence

__all__ = ["CONTEXT", "Attempt", "Outcome", "backoff_delay", "wait_any"]

#: The start method of every supervised child, pinned rather than left to
#: the interpreter default (``forkserver`` on Linux from Python 3.14).
#: ``fork`` starts a child in ~5 ms with numpy and ``repro`` imported;
#: ``forkserver`` and ``spawn`` take over a second.
CONTEXT = multiprocessing.get_context("fork")

#: Seconds between stop-predicate checks while a child runs.
_TICK_S = 0.05

#: Seconds a child that already reported gets to exit before it is killed.
_REAP_S = 5.0


def backoff_delay(key: str, attempt: int, base_s: float, cap_s: float) -> float:
    """Exponential backoff with deterministic per-(key, attempt) jitter."""
    base = min(cap_s, base_s * (2 ** (attempt - 1)))
    return base * random.Random(f"{key}:{attempt}").uniform(0.5, 1.5)


@dataclass(frozen=True)
class Outcome:
    """How one attempt ended.

    ``kind`` is ``done`` (``value`` is what ``fn`` returned), ``failed``
    (``fn`` raised, its value did not pickle, or the child never started;
    ``error`` says which), ``crashed`` (the child died without reporting),
    ``timeout`` (killed at the deadline) or ``stopped`` (killed because
    the stop predicate held).  ``elapsed_s`` is parent-side wall time.
    """

    kind: str
    elapsed_s: float
    value: Any = None
    error: str = ""
    exitcode: Optional[int] = None


def _die_with_parent(parent_pid: int) -> None:
    """Tie this child's life to its supervisor's.

    A SIGKILLed supervisor gets no chance to kill its children, and an
    orphan would silently keep computing (and publishing to the shared
    cache) behind a restarted supervisor's back.  On Linux,
    ``PR_SET_PDEATHSIG`` delivers us SIGKILL the moment the parent dies;
    the ppid check closes the race where the parent died before the
    prctl took effect.  Best-effort elsewhere.
    """
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.prctl(1, 9)  # PR_SET_PDEATHSIG = 1, SIGKILL = 9
    except (OSError, AttributeError):  # non-Linux: no tether, only the check
        pass
    if os.getppid() != parent_pid:
        os._exit(1)  # parent already gone; don't become an orphan


def _child_main(conn, parent_pid: int, fn: Callable[..., Any], args: Sequence[Any]) -> None:
    """Child-side bootstrap: tether, run, report ``(kind, payload)``."""
    _die_with_parent(parent_pid)
    try:
        message = ("done", fn(*args))
    except Exception as exc:  # SystemExit & co. end the child: a crash
        message = ("failed", f"{type(exc).__name__}: {exc}")
    try:
        conn.send(message)  # pickles before writing: a failure leaves no partial frame
    except OSError:  # supervisor gone; nothing to tell
        pass
    except Exception as exc:  # the value does not pickle
        conn.send(("failed", f"{type(exc).__name__}: {exc}"))


class Attempt:
    """``fn(*args)`` running in a supervised child, started on construction.

    Drive one with :meth:`wait`, or many at once with :func:`wait_any`
    plus :meth:`poll`.
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        args: Sequence[Any] = (),
        *,
        timeout_s: Optional[float] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.started = time.monotonic()
        self.timeout_s = timeout_s
        self.deadline = None if timeout_s is None else self.started + timeout_s
        self.outcome: Optional[Outcome] = None
        self._stop = stop
        self._conn, child_conn = CONTEXT.Pipe(duplex=False)
        self._proc = CONTEXT.Process(
            target=_child_main,
            args=(child_conn, os.getpid(), fn, tuple(args)),
            daemon=True,
        )
        try:
            self._proc.start()
        except OSError as exc:
            self._conn.close()
            error = f"worker start failed: {type(exc).__name__}: {exc}"
            self.outcome = Outcome("failed", 0.0, error=error)
        finally:
            child_conn.close()

    def poll(self) -> Optional[Outcome]:
        """Settle the attempt if it finished, expired or was stopped.

        Never blocks on a live child; returns ``None`` while it runs.
        """
        if self.outcome is not None:
            return self.outcome
        # Liveness first: a child seen dead has already written whatever
        # it was going to, so the pipe check below cannot miss it.
        alive = self._proc.is_alive()
        try:
            if self._conn.poll():
                kind, payload = self._conn.recv()
                if kind == "done":
                    return self._settle("done", value=payload)
                return self._settle("failed", error=payload)
        except (EOFError, OSError):  # died with the pipe open or mid-send
            alive = False
        if not alive:
            return self._settle("crashed")
        if self.deadline is not None and time.monotonic() >= self.deadline:
            self._proc.kill()
            return self._settle("timeout", error=f"attempt exceeded {self.timeout_s}s")
        if self._stop is not None and self._stop():
            self._proc.kill()
            return self._settle("stopped")
        return None

    def wait(self) -> Outcome:
        """Block until the attempt settles."""
        while self.poll() is None:
            wait_any([self])
        return self.outcome  # type: ignore[return-value]

    def kill(self) -> Outcome:
        """SIGKILL and reap the child now; settles as ``stopped``."""
        if self.outcome is None:
            self._proc.kill()
            self._settle("stopped")
        return self.outcome  # type: ignore[return-value]

    def _settle(self, kind: str, *, value: Any = None, error: str = "") -> Outcome:
        """Reap the child (no zombie outlives us) and record the outcome."""
        self._proc.join(_REAP_S)
        if self._proc.exitcode is None:  # reported, but lingers on exit
            self._proc.kill()
            self._proc.join()
        exitcode = self._proc.exitcode
        self._proc.close()
        self._conn.close()
        if kind == "crashed":
            error = f"worker process died (exit code {exitcode})"
        elapsed = time.monotonic() - self.started
        self.outcome = Outcome(kind, elapsed, value=value, error=error, exitcode=exitcode)
        return self.outcome


def wait_any(attempts: Iterable[Attempt], timeout: Optional[float] = None) -> None:
    """Block until one of *attempts* may settle, or *timeout* seconds pass.

    Returns early on a result or a death (pipe or sentinel ready), at the
    nearest deadline and at every stop-predicate tick; the caller then
    :meth:`~Attempt.poll`\\ s each attempt.
    """
    now = time.monotonic()
    handles: list = []
    for attempt in attempts:
        if attempt.outcome is not None:
            return
        handles += [attempt._conn, attempt._proc.sentinel]
        if attempt.deadline is not None:
            left = max(0.0, attempt.deadline - now)
            timeout = left if timeout is None else min(timeout, left)
        if attempt._stop is not None:
            timeout = _TICK_S if timeout is None else min(timeout, _TICK_S)
    wait(handles, timeout)
