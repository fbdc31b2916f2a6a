"""The job worker: the function one service job attempt runs.

:mod:`repro.service.jobs` runs :func:`job_worker_main` in a fresh child
process per attempt through :class:`~repro.runtime.supervisor.Attempt`,
which owns the parent-death tether, the result pipe, the hard deadline
and the kill.  The worker rebuilds a tracer on the service's shared
``trace.jsonl`` under the job span, applies any armed chaos fault, and
computes the analysis through the runtime cache, which publishes the
payload under its key.  It returns ``{"ok", "hit", "key"}`` — *not* the
payload: the supervisor re-reads it from the cache by key, so a worker
killed after publish loses nothing.

Failures return as values with a ``transient`` flag: a
:class:`~repro.service.errors.ServiceError` is permanent; injected
faults and I/O-shaped errors (cache lock contention, a vanished upload
spool) are transient and worth a retry.  A worker that dies without
returning is the supervisor's ``crashed`` outcome, charged to the poison
counter.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs import Tracer, TraceWriter, reset_tracer, set_tracer
from repro.runtime.faults import ArmedFault, InjectedFault, apply_armed_fault
from repro.service.analyses import AnalysisSpec, compute_analysis
from repro.service.errors import ServiceError

__all__ = ["job_worker_main"]


def _failure(code: str, message: str, transient: bool) -> Dict[str, Any]:
    return {"ok": False, "code": code, "message": message, "transient": transient}


def job_worker_main(
    envelope: Dict[str, Any], fault: Optional[ArmedFault] = None
) -> Dict[str, Any]:
    """Run one job attempt; return its ``ok``/failure report."""
    trace = envelope.get("trace") or {}
    token = None
    if trace.get("path"):
        writer = TraceWriter(
            trace["path"], trace_id=trace.get("trace_id"), write_header=False
        )
        tracer = Tracer(
            writer, trace_id=writer.trace_id, parent_id=trace.get("parent_span_id")
        )
        token = set_tracer(tracer)
    try:
        if fault is not None:
            # ``exit`` never returns; ``raise`` throws; ``hang`` stalls
            # here — inside the process the supervisor can kill.
            apply_armed_fault(fault)
        spec = AnalysisSpec(
            kind=envelope["kind"],
            input=envelope["spec"]["input"],
            params=envelope["spec"]["params"],
        )
        _payload, hit, key = compute_analysis(
            spec,
            cache_dir=envelope["cache_dir"],
            fingerprint=envelope["fingerprint"],
            uploads_dir=envelope["uploads_dir"],
        )
        return {"ok": True, "hit": hit, "key": key}
    except ServiceError as exc:
        return _failure(exc.code, exc.message, False)
    except InjectedFault as exc:
        return _failure("job_failed", str(exc), True)
    except OSError as exc:
        return _failure("job_failed", f"{type(exc).__name__}: {exc}", True)
    except BaseException as exc:  # noqa: BLE001 - report, never lose the reason
        return _failure("job_failed", f"{type(exc).__name__}: {exc}", False)
    finally:
        if token is not None:
            reset_tracer(token)
