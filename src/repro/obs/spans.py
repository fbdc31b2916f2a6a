"""Hierarchical spans: the tracing half of :mod:`repro.obs`.

A *span* is one timed, named region of a run.  Spans nest: every span
records its ``trace_id`` (the whole run), its own ``span_id`` and the
``parent_id`` of the span it ran inside, so a trace reconstructs into a
tree — the run at the root, one branch per task, and inside each task
the cache lookup, the compute phase and whatever phases the experiment
itself marks (SWF parse, MDS solve, bootstrap loop, ...).

Two APIs:

* :class:`Tracer` — owns the ids and the sink; ``tracer.span(name)`` is
  a context manager that emits one span record when the region closes.
* the **ambient** module-level :func:`span` / :func:`event` — delegate
  to the tracer installed via :func:`set_tracer` and are no-ops when
  none is installed.  Library code (cache, faults, experiments)
  instruments itself with these so it never needs plumbing and costs
  nothing when tracing is off.

Parent/child linkage uses a :class:`contextvars.ContextVar`, so nesting
follows the call stack.  Cross-process propagation is explicit: the
parent serializes ``(trace file, trace_id, parent span id)`` into the
task envelope and the worker builds its own :class:`Tracer` from it
(see :func:`repro.experiments.registry.execute_experiment_cached`).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional, Protocol

from repro.obs import clock

__all__ = [
    "ListSink",
    "SpanHandle",
    "Tracer",
    "current_tracer",
    "event",
    "set_tracer",
    "span",
]


class Sink(Protocol):
    """Anything that can receive one trace record."""

    def emit(self, record: Dict[str, Any]) -> None: ...


class ListSink:
    """A sink that buffers records in memory (tests, event capture)."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def emit(self, record: Dict[str, Any]) -> None:
        self.records.append(record)


#: The span id enclosing the current code path (this process/context).
_current_span: ContextVar[Optional[str]] = ContextVar("repro_obs_current_span", default=None)

#: The ambient tracer the module-level API delegates to.
_tracer: ContextVar[Optional["Tracer"]] = ContextVar("repro_obs_tracer", default=None)


class SpanHandle:
    """Yielded by ``span(...)``: lets the body attach attributes."""

    __slots__ = ("span_id", "attrs")

    def __init__(self, span_id: str, attrs: Dict[str, Any]) -> None:
        self.span_id = span_id
        self.attrs = attrs

    def set(self, **attrs: Any) -> "SpanHandle":
        """Attach extra attributes to the span record (e.g. ``n_iter``)."""
        self.attrs.update(attrs)
        return self


class Tracer:
    """Emits hierarchical span/event records for one trace into a sink."""

    def __init__(
        self,
        sink: Sink,
        *,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
    ) -> None:
        self.sink = sink
        self.trace_id = trace_id or clock.new_id()
        #: Parent for top-level spans (the remote parent when this tracer
        #: lives in a worker process).
        self.parent_id = parent_id

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[SpanHandle]:
        """Time a region; emit one ``span`` record when it closes.

        The record is emitted even when the body raises (``status`` is
        ``"error"`` and the exception type is attached), so a failing
        task still leaves its trace behind.
        """
        span_id = clock.new_id()
        parent = _current_span.get() or self.parent_id
        handle = SpanHandle(span_id, dict(attrs))
        started = clock.now()
        t0 = clock.perf()
        token = _current_span.set(span_id)
        status = "ok"
        try:
            yield handle
        except BaseException as exc:
            status = "error"
            handle.attrs.setdefault("error", f"{type(exc).__name__}: {exc}")
            raise
        finally:
            _current_span.reset(token)
            self.sink.emit(
                {
                    "type": "span",
                    "name": name,
                    "trace_id": self.trace_id,
                    "span_id": span_id,
                    "parent_id": parent,
                    "ts": round(started, 6),
                    "wall_s": round(clock.perf() - t0, 6),
                    "status": handle.attrs.pop("status", status),
                    **handle.attrs,
                }
            )

    def event(self, kind: str, **fields: Any) -> None:
        """Emit one point-in-time ``event`` record under the current span."""
        self.sink.emit(
            {
                "type": "event",
                "kind": kind,
                "trace_id": self.trace_id,
                "span_id": _current_span.get() or self.parent_id,
                "ts": round(clock.now(), 6),
                **fields,
            }
        )


# -- ambient API --------------------------------------------------------------


def set_tracer(tracer: Optional[Tracer]):
    """Install *tracer* as the ambient tracer; returns a reset token."""
    return _tracer.set(tracer)


def reset_tracer(token) -> None:
    """Undo a :func:`set_tracer` (restores the previous ambient tracer)."""
    _tracer.reset(token)


def current_tracer() -> Optional[Tracer]:
    """The ambient tracer, or ``None`` when tracing is off."""
    return _tracer.get()


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[SpanHandle]:
    """Ambient span: delegates to the installed tracer, no-op without one.

    The no-op path still yields a working :class:`SpanHandle` so
    instrumented code can call ``handle.set(...)`` unconditionally.
    """
    tracer = _tracer.get()
    if tracer is None:
        yield SpanHandle("", {})
        return
    with tracer.span(name, **attrs) as handle:
        yield handle


def event(kind: str, **fields: Any) -> None:
    """Ambient event: delegates to the installed tracer, no-op without one."""
    tracer = _tracer.get()
    if tracer is not None:
        tracer.event(kind, **fields)
