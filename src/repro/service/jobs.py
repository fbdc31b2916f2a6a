"""The service's job supervisor: bounded admission, hard deadlines.

A :class:`JobRunner` owns a fixed-size pool of *supervisor threads*.
A submission whose result is already in the runtime cache never reaches
them: :meth:`JobRunner.answer_hit` writes its run directory and journals
it as born ``done`` — one fsync'd record, no worker, no admission slot.
Every other accepted submission becomes one journaled job record
(:mod:`repro.service.store`) and one pool task; the supervisor thread

1. marks the job ``running`` and opens the job span (parented to the
   submitting request's span, so the trace nests request → job →
   worker spans),
2. runs the attempt (:mod:`repro.service.worker`) in a dedicated
   **worker subprocess** under the runtime's shared
   :class:`~repro.runtime.supervisor.Attempt`, with the
   ``job_timeout_s`` deadline and the job's cancel flag (or a hard
   drain) as its stop predicate,
3. on deadline, cancellation or drain the worker is SIGKILLed and
   reaped — timeouts are *hard*: the slot frees immediately, no thread
   is left wedged behind a hung compute,
4. retries transient failures (worker crash, injected fault, I/O
   contention) with jittered exponential backoff, charging worker
   crashes to the spec's poison counter — a spec that crashes its
   worker ``poison_threshold`` times (in one process life or across
   restarts) lands in ``poisoned`` and is quarantined until pardoned,
5. journals the terminal state (``done``/``error``/``cancelled``/
   ``poisoned``) with the cache key, wall time and hit flag, writes the
   run directory, and bumps the service counters the acceptance tests
   scrape from ``/metrics`` — counters and the freed slot first, so a
   client that sees the terminal state sees them too.

Admission is bounded: ``workers + queue_depth`` jobs may be live at
once, reserved at submit time and released at the terminal state, so an
overloaded server sheds load with ``429 over_capacity`` (and reports
headroom on ``/readyz``) instead of queueing without limit.  Cache hits
take no slot and are never shed.

Concurrency discipline: ``_state`` (a Condition) guards the slot count,
per-job controls and lifecycle flags and is never held across I/O —
journal writes and the supervised attempt all happen outside it.
The store's own two-lock protocol (see :mod:`repro.service.store`)
covers durability.
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import MetricsRegistry, Tracer, TraceWriter, event, reset_tracer, set_tracer, span
from repro.obs import clock as obs_clock
from repro.runtime.cache import ResultCache
from repro.runtime.faults import FaultPlan, tear_journal
from repro.runtime.supervisor import Attempt, Outcome, backoff_delay
from repro.service.errors import ServiceError
from repro.service.store import TERMINAL_STATES, JobStore
from repro.service.worker import job_worker_main
from repro.util.atomicio import atomic_symlink, atomic_write_bytes, atomic_write_text

__all__ = ["RUNS_DIR_NAME", "JobRunner"]

#: Per-job run directories live here, inside the service state dir.
RUNS_DIR_NAME = "runs"

#: Histogram buckets for job wall time (seconds).
_JOB_BUCKETS = (0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0)

#: The counter each terminal state other than ``done`` bumps.
_FINISH_COUNTERS = {
    "error": "analyses_failed_total",
    "cancelled": "analyses_cancelled_total",
    "poisoned": "analyses_poisoned_total",
}


class _JobControl:
    """Per-job supervision handle shared by API threads and the supervisor.

    ``claimed`` arbitrates ownership of the terminal write: the
    supervisor claims at pickup; a cancel that arrives first claims
    instead and writes ``cancelled`` itself.  ``slot`` is true while the
    job holds its admission slot, which is freed before the terminal
    record is published; the control itself is dropped only after.  Both
    flags are guarded by the runner's ``_state`` lock; ``cancel`` is an
    Event, safe anywhere.
    """

    __slots__ = ("cancel", "claimed", "slot")

    def __init__(self) -> None:
        self.cancel = threading.Event()
        self.claimed = False
        self.slot = True


class JobRunner:
    """Executes journaled analysis jobs in supervised worker subprocesses."""

    def __init__(
        self,
        store: JobStore,
        metrics: MetricsRegistry,
        writer: TraceWriter,
        *,
        cache_dir: str,
        fingerprint: str,
        workers: int = 4,
        queue_depth: int = 32,
        job_timeout_s: Optional[float] = None,
        job_retries: int = 2,
        poison_threshold: int = 2,
        backoff_base_s: float = 0.25,
        backoff_cap_s: float = 8.0,
        retry_after_s: float = 1.0,
        fault_plan: Optional[FaultPlan] = None,
        before_execute: Optional[Callable[[str], None]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_depth < 0:
            raise ValueError(f"queue_depth must be >= 0, got {queue_depth}")
        if job_retries < 0:
            raise ValueError(f"job_retries must be >= 0, got {job_retries}")
        if poison_threshold < 1:
            raise ValueError(f"poison_threshold must be >= 1, got {poison_threshold}")
        self.store = store
        self.metrics = metrics
        self.writer = writer
        self.cache_dir = cache_dir
        self.fingerprint = fingerprint
        self.workers = workers
        self.queue_depth = queue_depth
        self.capacity = workers + queue_depth
        self.job_timeout_s = job_timeout_s
        self.job_retries = job_retries
        self.poison_threshold = poison_threshold
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.retry_after_s = retry_after_s
        self.fault_plan = fault_plan
        #: Test/diagnostic seam: runs in the supervisor before a job starts.
        self.before_execute = before_execute
        self.cache = ResultCache(cache_dir, fingerprint=fingerprint)
        self.runs_dir = os.path.join(store.state_dir, RUNS_DIR_NAME)
        os.makedirs(self.runs_dir, exist_ok=True)
        self._state = threading.Condition()
        self._active = 0
        self._controls: Dict[str, _JobControl] = {}
        self._closed = False
        self._abandoned = False
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-service"
        )

    # -- admission -----------------------------------------------------------

    def reserve(self, *, force: bool = False) -> None:
        """Claim one admission slot or shed the request.

        Called *before* the job is journaled, so an over-capacity POST
        is refused without leaving a record behind.  ``force`` is the
        restart-recovery path: journaled jobs are always readmitted,
        even past capacity — durability outranks backpressure.
        """
        with self._state:
            if self._closed:
                raise self._draining()
            if not force and self._active >= self.capacity:
                self.metrics.inc("analyses_shed_total")
                raise ServiceError(
                    "over_capacity",
                    f"all {self.capacity} job slots are taken; retry shortly",
                    retry_after=self.retry_after_s,
                    active=self._active,
                    capacity=self.capacity,
                )
            self._active += 1

    def _draining(self) -> ServiceError:
        """The refusal every entry point gives once the runner is closed."""
        return ServiceError(
            "shutting_down",
            "server is draining; try again later",
            retry_after=self.retry_after_s,
        )

    def _free_slot(self, job_id: str) -> None:
        """Give *job_id*'s admission slot back (once); its control stays.

        Every terminal transition calls this, and bumps its counters,
        before it publishes the record.
        """
        with self._state:
            control = self._controls.get(job_id)
            if control is not None and control.slot:
                control.slot = False
                self._active -= 1
                self._state.notify_all()

    def _release(self, job_id: str) -> None:
        """Free the slot if still held and drop the job's control."""
        self._free_slot(job_id)
        with self._state:
            self._controls.pop(job_id, None)

    def queue_stats(self) -> Dict[str, int]:
        """Occupancy snapshot for ``/readyz`` and the metrics gauges."""
        with self._state:
            active = self._active
        return {
            "active": active,
            "capacity": self.capacity,
            "headroom": max(0, self.capacity - active),
            "workers": self.workers,
            "queue_depth": self.queue_depth,
        }

    # -- lifecycle -----------------------------------------------------------

    def submit(self, job_id: str) -> None:
        """Queue one already-journaled, already-reserved job for execution."""
        with self._state:
            if self._closed:
                # The journal keeps the job; the next boot recovers it.
                raise self._draining()
            self._controls[job_id] = _JobControl()
        self._pool.submit(self._run_job, job_id)

    def recover(self) -> Tuple[int, int]:
        """Re-enqueue unfinished journaled jobs; quarantine repeat killers.

        A job that was ``queued`` when the previous process died is
        resubmitted as-is.  One that was ``running`` took the server
        down with it (or died alongside it) — that counts against its
        spec's poison counter, and a spec that has now crashed
        ``poison_threshold`` times is parked in ``poisoned`` instead of
        being re-enqueued, so one bad upload cannot wedge recovery into
        a crash loop.  Returns ``(resumed, poisoned)``.
        """
        resumed = poisoned = 0
        for record in self.store.jobs():
            status = record.get("status")
            if status not in ("queued", "running"):
                continue
            if status == "running" and record.get("key"):
                count = self.store.record_key_failure(record["key"])
                if count >= self.poison_threshold:
                    self.store.update(
                        record["id"],
                        status="poisoned",
                        finished_ts=round(time.time(), 6),  # repro-lint: disable=REP003 -- journal audit stamp, never in cache identity (REP008-verified)
                        error={
                            "code": "quarantined",
                            "message": f"spec crashed a worker or the server "
                            f"{count} times; quarantined until pardoned",
                            "failures": count,
                        },
                    )
                    self.metrics.inc("analyses_poisoned_total")
                    poisoned += 1
                    continue
            self.store.update(record["id"], status="queued", recovered=True)
            self.reserve(force=True)
            self.submit(record["id"])
            resumed += 1
        return resumed, poisoned

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Client-initiated cancellation: ``DELETE /v1/analyses/{id}``.

        A queued job is cancelled on the spot (its slot frees
        immediately); a running one has its worker SIGKILLed by the
        supervisor, which writes the ``cancelled`` terminal state within
        a stop-predicate tick.  Terminal jobs refuse with
        ``not_cancellable``.
        """
        record = self.store.get(job_id)
        if record is None:
            raise ServiceError("not_found", f"no job {job_id}", job_id=job_id)
        status = record.get("status")
        if status in TERMINAL_STATES:
            raise ServiceError(
                "not_cancellable",
                f"job {job_id} is already {status}",
                job_id=job_id,
                status=status,
            )
        finish_now = False
        with self._state:
            control = self._controls.get(job_id)
            if control is None:
                # Journaled but not under supervision (e.g. mid-drain):
                # the terminal write is ours.
                finish_now = True
            else:
                control.cancel.set()
                if not control.claimed:
                    control.claimed = True  # supervisor pickup becomes a no-op
                    finish_now = True
        if finish_now:
            self._free_slot(job_id)
            self.metrics.inc("analyses_cancelled_total")
            record = self.store.update(
                job_id,
                status="cancelled",
                finished_ts=round(time.time(), 6),  # repro-lint: disable=REP003 -- journal audit stamp, never in cache identity (REP008-verified)
            )
            self._release(job_id)
            return record
        return self.store.get(job_id) or record

    def pardon(self, job_id: str) -> Dict[str, Any]:
        """Pardon and re-enqueue a terminal job: ``POST .../retry``.

        Resets the spec's poison counter (the circuit breaker's manual
        reset), strips the stale terminal fields and resubmits under
        normal admission control.
        """
        record = self.store.get(job_id)
        if record is None:
            raise ServiceError("not_found", f"no job {job_id}", job_id=job_id)
        status = record.get("status")
        if status not in TERMINAL_STATES:
            raise ServiceError(
                "already_in_flight",
                f"job {job_id} is still {status}",
                job_id=job_id,
            )
        self.reserve()
        if record.get("key"):
            self.store.pardon_key(record["key"])
        record = self.store.update(
            job_id,
            status="queued",
            retried=True,
            error=None,
            wall_s=None,
            run_dir=None,
            cache_hit=None,
            finished_ts=None,
            started_ts=None,
        )
        self.metrics.inc("analyses_retried_total")
        self.submit(job_id)
        return record

    def drain(self, *, wait: bool = True, timeout_s: Optional[float] = None) -> List[str]:
        """Stop accepting work and wait for live jobs, bounded by *timeout_s*.

        Returns the ids of jobs still unfinished when the bound expired.
        Their supervisors SIGKILL the workers and set the records back to
        ``queued`` (``drain_requeued``) — the next boot re-runs them
        *without* a poison charge, since the interruption was ours, not
        theirs.
        """
        with self._state:
            self._closed = True
        if not wait:
            self._pool.shutdown(wait=False)
            return []
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        with self._state:
            while self._active:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    break
                self._state.wait(timeout=0.2 if remaining is None else min(0.2, remaining))
            pending = [j for j, control in self._controls.items() if control.slot]
            if pending:
                self._abandoned = True
        self._pool.shutdown(wait=True)
        return pending

    # -- execution -----------------------------------------------------------

    def _run_job(self, job_id: str) -> None:
        with self._state:
            control = self._controls.get(job_id)
            if control is None or control.claimed or self._abandoned:
                return  # cancelled before pickup, or draining hard
            control.claimed = True
        record = self.store.get(job_id)
        if record is None:  # pragma: no cover - defensive
            self._release(job_id)
            return
        if self.before_execute is not None:
            self.before_execute(job_id)
        started = time.time()  # repro-lint: disable=REP003 -- journal audit stamp, never in cache identity (REP008-verified)
        t0 = time.monotonic()
        tracer = Tracer(
            self.writer,
            trace_id=self.writer.trace_id,
            parent_id=record.get("request_span_id"),
        )
        token = set_tracer(tracer)
        try:
            self.store.update(job_id, status="running", started_ts=round(started, 6))
            with span(f"job:{job_id}", job=job_id, kind=record.get("kind")) as handle:
                self._supervise(job_id, record, control, handle, t0)
        except Exception as exc:  # pragma: no cover - supervisor must not die silently
            self._finish_error(
                job_id, t0, 1, code="internal", message=f"{type(exc).__name__}: {exc}"
            )
        finally:
            reset_tracer(token)
            self._release(job_id)

    def _supervise(self, job_id: str, record: Dict[str, Any], control: _JobControl, handle, t0: float) -> None:
        """The attempt loop: spawn, watch, classify, retry or finish."""
        attempt = 0
        while True:
            attempt += 1
            if control.cancel.is_set():
                self._finish(job_id, t0, attempt, "cancelled")
                return
            fault = None
            if self.fault_plan is not None:
                # Hash the restart-stable kind and cache key, never the
                # random job id (see repro.runtime.faults).
                task_id = f"{record.get('kind')}:{str(record.get('key'))[:12]}"
                fault = self.fault_plan.arm(task_id, attempt)
            if fault is not None and fault.kind == "corrupt":
                # Journal chaos is supervisor-side: tear the jobs journal
                # (a mid-append crash) and run the attempt itself clean.
                tear_journal(self.store.path, f"chaos-tear-{attempt}")
                self.metrics.inc("chaos_journal_tears_total")
                event("chaos_journal_torn", job=job_id, attempt=attempt)
                fault = None
            outcome = self._attempt(record, control, fault, handle)
            report = outcome.value if outcome.kind == "done" else None
            if report is not None and report.get("ok"):
                self._finish_done(job_id, record, t0, attempt, report, handle)
                return
            # A stop (cancel or hard drain) wins over however else the
            # attempt ended.
            if control.cancel.is_set():
                self._finish(job_id, t0, attempt, "cancelled")
                return
            if self._abandoned:
                # Drain gave up on us: hand the job to the next boot.
                self.store.update(job_id, status="queued", drain_requeued=True)
                return
            if outcome.kind == "timeout":
                self.metrics.inc("job_timeouts_total")
                event(
                    "job_timeout_kill",
                    job=job_id,
                    attempt=attempt,
                    timeout_s=self.job_timeout_s,
                )
                self._finish_error(
                    job_id,
                    t0,
                    attempt,
                    code="timeout",
                    message=f"job exceeded its {self.job_timeout_s:.1f}s limit; "
                    "worker killed at the deadline",
                    elapsed_s=round(outcome.elapsed_s, 3),
                    limit_s=self.job_timeout_s,
                )
                return
            if outcome.kind == "crashed":
                self.metrics.inc("worker_crashes_total")
                if record.get("key"):
                    count = self.store.record_key_failure(record["key"])
                    if count >= self.poison_threshold:
                        self._finish(
                            job_id,
                            t0,
                            attempt,
                            "poisoned",
                            error={
                                "code": "quarantined",
                                "message": f"spec crashed its worker {count} times; "
                                "quarantined until pardoned via POST .../retry",
                                "failures": count,
                            },
                        )
                        return
            # A crash or a failed process start is worth a retry; the
            # worker's own report says whether its failure is.
            if report is None:
                report = {"code": "job_failed", "message": outcome.error, "transient": True}
            if not report["transient"] or attempt > self.job_retries:
                self._finish_error(
                    job_id, t0, attempt, code=report["code"], message=report["message"]
                )
                return
            delay = backoff_delay(job_id, attempt, self.backoff_base_s, self.backoff_cap_s)
            self.metrics.inc("job_retries_total")
            event(
                "job_retry",
                job=job_id,
                attempt=attempt,
                delay_s=round(delay, 4),
                error=report["message"],
            )
            if control.cancel.wait(delay):
                self._finish(job_id, t0, attempt, "cancelled")
                return

    def _attempt(self, record: Dict[str, Any], control: _JobControl, fault, handle) -> Outcome:
        """Run one attempt in a supervised worker subprocess."""
        envelope = {
            "kind": record["kind"],
            "spec": record["spec"],
            "cache_dir": self.cache_dir,
            "fingerprint": self.fingerprint,
            "uploads_dir": self.store.uploads_dir,
            "trace": {
                "path": self.writer.path,
                "trace_id": self.writer.trace_id,
                "parent_span_id": handle.span_id,
            },
        }
        return Attempt(
            job_worker_main,
            (envelope, fault),
            timeout_s=self.job_timeout_s,
            stop=lambda: control.cancel.is_set() or self._abandoned,
        ).wait()

    # -- terminal transitions ------------------------------------------------

    def answer_hit(
        self,
        job_id: str,
        *,
        kind: str,
        spec: Dict[str, Any],
        key: str,
        payload: Dict[str, Any],
        request_span_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Journal a submission whose result is already cached as ``done``.

        No worker, no admission slot and no ``started_ts``, since nothing
        runs: the run dir is written and one terminal record is fsync'd
        before this returns.
        """
        with self._state:
            if self._closed:
                raise self._draining()
        self.metrics.inc("analyses_submitted_total")
        fields = self._done(job_id, spec, payload, time.monotonic(), hit=True)
        record = self.store.create_deferred(
            job_id,
            kind=kind,
            spec=spec,
            key=key,
            request_span_id=request_span_id,
            attempts=0,
            created_ts=fields["finished_ts"],  # born done
            **fields,
        )
        self.store.flush()
        return record

    def _finish_done(self, job_id, record, t0, attempt, report, handle) -> None:
        hit, key = bool(report.get("hit")), report.get("key")
        handle.set(cache_hit=hit)
        payload = self.cache.get(key) if key else None
        fields = self._done(job_id, record["spec"], payload, t0, hit=hit)
        self._free_slot(job_id)
        self.store.update(job_id, attempts=attempt, key=key, **fields)

    def _done(self, job_id, spec, payload, t0, *, hit) -> Dict[str, Any]:
        """Write one job's run dir, count it done; return its ``done`` fields.

        Both ways to ``done`` (a worker's report, a hit at submit) go
        through here, before the caller publishes the record.
        """
        elapsed = time.monotonic() - t0
        run_dir = self._write_run_dir(job_id, spec, payload) if payload is not None else None
        self.metrics.inc("analyses_completed_total")
        self.metrics.inc("analysis_cache_hits_total" if hit else "analysis_compute_total")
        self.metrics.observe("job_seconds", elapsed, buckets=_JOB_BUCKETS)
        return {
            "status": "done",
            "finished_ts": round(time.time(), 6),  # repro-lint: disable=REP003 -- journal audit stamp, never in cache identity (REP008-verified)
            "wall_s": round(elapsed, 6),
            "cache_hit": hit,
            "run_dir": run_dir,
        }

    def _finish(self, job_id, t0, attempt, status, **fields) -> None:
        """Journal a terminal state other than ``done``."""
        elapsed = time.monotonic() - t0
        self._free_slot(job_id)
        self.metrics.inc(_FINISH_COUNTERS[status])
        if status == "error":
            self.metrics.observe("job_seconds", elapsed, buckets=_JOB_BUCKETS)
        self.store.update(
            job_id,
            status=status,
            finished_ts=round(time.time(), 6),  # repro-lint: disable=REP003 -- journal audit stamp, never in cache identity (REP008-verified)
            wall_s=round(elapsed, 6),
            attempts=attempt,
            **fields,
        )

    def _finish_error(self, job_id, t0, attempt, *, code, message, **extra) -> None:
        error = {"code": code, "message": message, **extra}
        self._finish(job_id, t0, attempt, "error", error=error)

    def _write_run_dir(self, job_id: str, spec: Dict[str, Any], payload: Dict[str, Any]) -> str:
        """Persist one job's outputs into a fresh stamped run directory.

        Mirrors the CLI runner's ``--out`` layout: a wall-clock stamped
        directory per request plus a ``latest`` symlink — updated with
        :func:`atomic_symlink`, since concurrent jobs finish concurrently.
        """
        name = f"job-{obs_clock.utc_stamp()}-{job_id[:8]}"
        run_dir = os.path.join(self.runs_dir, name)
        suffix = 1
        while os.path.exists(run_dir):  # same-second job: never clobber
            suffix += 1
            run_dir = os.path.join(self.runs_dir, f"{name}.{suffix}")
        os.makedirs(run_dir)
        atomic_write_text(
            os.path.join(run_dir, "result.json"),
            json.dumps(payload, sort_keys=True, indent=2) + "\n",
        )
        artifacts = payload.get("artifacts") or {}
        if "svg" in artifacts:
            atomic_write_bytes(
                os.path.join(run_dir, "result.svg"), artifacts["svg"].encode("utf-8")
            )
        if "csv" in artifacts:
            atomic_write_text(os.path.join(run_dir, "result.csv"), artifacts["csv"])
        atomic_write_text(
            os.path.join(run_dir, "spec.json"),
            json.dumps(spec, sort_keys=True, indent=2) + "\n",
        )
        try:
            atomic_symlink(
                os.path.basename(run_dir),
                os.path.join(self.runs_dir, "latest"),
                target_is_directory=True,
            )
        except OSError:  # filesystems without symlink support
            atomic_write_text(
                os.path.join(self.runs_dir, "LATEST"), os.path.basename(run_dir) + "\n"
            )
        return run_dir

