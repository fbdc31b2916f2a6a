"""Workload ``svc_upload``: SWF uploads to the HTTP analysis service.

The service runs as ``python -m repro.service`` with its default
settings on an ephemeral port and a fresh state dir.  It is booted
several times per run; the median spawn-to-``/readyz`` time is its
set-up time and the last boot carries the load.

Two closed-loop callers upload production-size SWF logs, synthesized by
``repro.archive`` from the paper's production workloads, and wait for
each ``coplot`` result.  Latency of one upload runs from when it was
submitted to the job's server-side ``finished_ts`` (same host clock),
plus the client-timed result GET, so the fixed poll interval stays out
of the number.  The load comes from this one process with at most two
threads.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import threading
import time
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from common import (
    BenchError,
    Program,
    WorkDir,
    median,
    proc_cpu_s,
    proc_hwm_kb,
    program_argv,
    quantile,
)
from layers import load_spans, read_jsonl, stats_table, trace_self_times

SERVICE = "repro.service"
BOOTS = 5
#: Fixed status-poll interval; every poll is one fsync'd trace record on
#: the server, so it must not change between runs.
POLL_S = 0.05
TERMINAL = ("done", "error", "cancelled", "poisoned")
#: A request without a terminal state this long after it was sent fails.
REQUEST_TIMEOUT_S = 30.0
_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")

#: Production-size logs: one base log per archive workload, each at its
#: own seed drawn from the run's.  Fresh uploads rotate through the bases
#: in a fixed order, so every run uploads the same mix of workloads.
UPLOAD_JOBS = 50_000
UPLOAD_CALLERS = 2
UPLOAD_REPEAT_P = 1.0 / 3.0


class Server:
    """One booted service process."""

    def __init__(self, work: WorkDir, tag: str, *, traced: bool):
        self.state_dir = work.sub(f"state-{tag}")
        self.spans_dir = None
        if traced:
            self.spans_dir = work.sub(f"spans-{tag}")
            os.makedirs(self.spans_dir)
        args = ["--port", "0", "--state-dir", self.state_dir]
        self.prog = Program(
            program_argv(SERVICE, args, traced=traced),
            spans_dir=self.spans_dir,
            log_path=work.sub(f"server-{tag}.log"),
        )
        try:
            self.host, self.port = self._await_port(60.0)
            self._await_ready(60.0)
        except BaseException:
            self.prog.kill()
            raise
        self.setup_s = time.perf_counter() - self.prog.t0

    def _await_port(self, timeout_s: float) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.prog.output())
            if match:
                return match.group(1), int(match.group(2))
            if self.prog.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise BenchError(f"service did not start:\n{self.prog.output()[-2000:]}")

    def _await_ready(self, timeout_s: float) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:
                if self.request("GET", "/readyz", timeout=5.0)[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise BenchError("service never became ready")

    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        content_type: str = "application/json",
        timeout: float = 60.0,
    ) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            headers = {"Content-Type": content_type} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def counters(self) -> Dict[str, float]:
        status, text = self.request("GET", "/metrics")
        if status != 200:
            raise BenchError(f"/metrics answered {status}")
        out: Dict[str, float] = {}
        for line in text.decode("utf-8").splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                name = name.removeprefix("repro_service_")
                try:
                    out[name] = float(value)
                except ValueError:
                    continue
        return out

    def journal(self) -> List[Dict[str, Any]]:
        return read_jsonl(os.path.join(self.state_dir, "jobs.jsonl"))

    def trace(self) -> List[Dict[str, Any]]:
        return read_jsonl(os.path.join(self.state_dir, "trace.jsonl"))

    def stop(self) -> Dict[str, float]:
        """SIGTERM (graceful drain); returns the server's peak RSS in MB."""
        hwm = proc_hwm_kb(self.prog.pid)
        code = self.prog.terminate(60.0)
        if code != 0:
            raise BenchError(f"service exited {code} on SIGTERM")
        return {"rss_mb": hwm / 1024.0}

    def kill(self) -> None:
        self.prog.kill()


def boot(work: WorkDir, traced: bool) -> Tuple[Server, List[float]]:
    """Boot BOOTS times; keep the last server, return every set-up time."""
    setups = []
    for i in range(BOOTS - 1):
        server = Server(work, f"boot{i}", traced=False)
        setups.append(server.setup_s)
        server.stop()
    server = Server(work, "load", traced=traced)
    setups.append(server.setup_s)
    return server, setups


# -- the job protocol ----------------------------------------------------------


class Request:
    """One upload and what became of it."""

    __slots__ = (
        "cls", "label", "log", "jobs", "body", "size", "due", "job_id", "polls", "cache_hit",
        "finished_ts", "result_s", "latency_s", "error", "payload", "done",
    )

    def __init__(self, cls: str, body: bytes, label: str, log: int, jobs: int):
        self.cls = cls
        self.label = label
        self.log = log
        self.jobs = jobs
        self.body = body
        self.size = len(body)
        self.due = math.nan
        self.job_id: Optional[str] = None
        self.polls = 0
        self.cache_hit: Optional[bool] = None
        self.finished_ts = math.nan
        self.result_s = math.nan
        self.latency_s = math.nan
        self.error: Optional[str] = None
        self.payload: Optional[bytes] = None
        self.done = False


def submit(server: Server, req: Request) -> None:
    """POST one upload; a 409 already_in_flight is followed to its job."""
    try:
        status, body = server.request(
            "POST", "/v1/analyses?kind=coplot", body=req.body,
            content_type="application/octet-stream",
        )
    except OSError as exc:
        req.error, req.done = f"submit: {exc}", True
        return
    try:
        doc = json.loads(body)
        if status == 202:
            req.job_id = doc["job_id"]
            return
        if status == 409 and doc["error"]["code"] == "already_in_flight":
            req.job_id = doc["error"]["job_id"]
            return
    except (ValueError, KeyError, TypeError):
        pass
    req.error, req.done = f"submit answered {status}", True


def poll(server: Server, req: Request) -> None:
    """One status poll; on a terminal state fetch the result."""
    req.polls += 1
    try:
        status, body = server.request("GET", f"/v1/analyses/{req.job_id}")
        if status != 200:
            req.error, req.done = f"status answered {status}", True
            return
        try:
            job = json.loads(body)["job"]
        except (ValueError, KeyError, TypeError):
            req.error, req.done = "malformed status reply", True
            return
        if job["status"] not in TERMINAL:
            return
        if job["status"] != "done":
            req.error, req.done = f"job ended {job['status']}", True
            return
        t0 = time.perf_counter()
        status, body = server.request("GET", f"/v1/analyses/{req.job_id}/result")
        req.result_s = time.perf_counter() - t0
    except OSError as exc:
        req.error, req.done = f"poll: {exc}", True
        return
    if status != 200:
        req.error, req.done = f"result answered {status}", True
        return
    req.finished_ts = job["finished_ts"]
    req.cache_hit = job.get("cache_hit")
    req.latency_s = req.finished_ts - req.due + req.result_s
    req.payload = body
    req.done = True


def check_map(doc: Dict[str, Any]) -> None:
    """A Co-plot map: finite coordinates, one row per label, Θ in [0, 1]."""
    m = doc["map"]
    coords, labels = m["coords"], m["labels"]
    if len(coords) != len(labels) or len(labels) < 3:
        raise BenchError(f"map has {len(coords)} rows for {len(labels)} labels")
    for row in coords:
        if len(row) != 2 or not all(isinstance(v, (int, float)) and math.isfinite(v) for v in row):
            raise BenchError(f"map row {row!r} is not a finite 2-D point")
    theta = m["alienation"]
    if not (isinstance(theta, (int, float)) and 0.0 <= theta <= 1.0):
        raise BenchError(f"coefficient of alienation {theta!r} outside [0, 1]")


def summarize(reqs: List[Request], cls: str) -> Tuple[float, float, int]:
    lat = [r.latency_s * 1000.0 for r in reqs if r.cls == cls and r.error is None]
    return quantile(lat, 0.5), quantile(lat, 0.9), len(lat)


def measure_window(server: Server) -> Dict[str, Any]:
    """Counters the layer report diffs across the timed phase."""
    journal = server.journal()
    return {
        "counters": server.counters(),
        "cpu_s": proc_cpu_s(server.prog.pid),
        "journal": len(journal),
        "trace": len(server.trace()),
        "jobs": {r["id"] for r in journal if r.get("type") == "job"},
    }


# -- svc_upload ---------------------------------------------------------------


class UploadPlan:
    """Which log each upload sends: a fresh one, or a repeat of an earlier one.

    The base logs are the paper's production workloads synthesized by
    ``repro.archive`` at production size.  A fresh log is a base log
    under a header line of its own, so its bytes (and digest) are new.
    A repeat resends a fresh log byte for byte, drawn only from logs
    whose result has come back and that no caller is sending right now:
    so it is a cache hit on the server and never joins a running job.
    """

    def __init__(self, seed: int):
        from repro.archive import PRODUCTION_NAMES, synthesize_workload
        from repro.workload.swf import render_swf_text

        self.seed = seed
        self.rng = np.random.default_rng([seed, 2])
        self.bases: List[Tuple[str, int, bytes]] = []
        for i in self.rng.permutation(len(PRODUCTION_NAMES)):
            name = PRODUCTION_NAMES[int(i)]
            log = synthesize_workload(name, n_jobs=UPLOAD_JOBS,
                                      seed=int(self.rng.integers(1 << 31)))
            self.bases.append((name, len(log), render_swf_text(log).encode()))
        self.logs: List[int] = []  # base index of each fresh log
        self.finished: List[int] = []
        self.busy: Set[int] = set()
        self.lock = threading.Lock()

    def warm_up(self) -> "Request":
        """A base log as it is; no fresh log or repeat has its bytes."""
        name, jobs, text = self.bases[0]
        return Request("warm", text, name, -1, jobs)

    def next(self) -> "Request":
        with self.lock:
            idle = [n for n in self.finished if n not in self.busy]
            if idle and self.rng.random() < UPLOAD_REPEAT_P:
                cls, number = "hit", idle[int(self.rng.integers(len(idle)))]
            else:
                cls, number = "miss", len(self.logs)
                self.logs.append(number % len(self.bases))
            self.busy.add(number)
        name, jobs, text = self.bases[self.logs[number]]
        head = f"; UploadId: seed {self.seed} log {number}\n".encode()
        return Request(cls, head + text, name, number, jobs)

    def done(self, req: "Request") -> None:
        with self.lock:
            self.busy.discard(req.log)
            if req.cls == "miss" and req.error is None:
                self.finished.append(req.log)


def _await_one(server: Server, req: Request, timeout_s: float = 60.0) -> None:
    req.due = time.time()
    submit(server, req)
    deadline = time.monotonic() + timeout_s
    while not req.done and time.monotonic() < deadline:
        time.sleep(POLL_S)
        poll(server, req)
    if req.error is not None or not req.done:
        raise BenchError(f"warm-up request failed: {req.error or 'timed out'}")


def run_upload(seed: int, seconds: float, traced: bool, clock) -> Dict[str, Any]:
    plan = UploadPlan(seed)
    with WorkDir("svc_upload-") as work:
        server, setups = boot(work, traced)
        try:
            warm = plan.warm_up()
            _await_one(server, warm)
            _check_upload(warm)
            window_s = max(5.0, seconds - clock())
            before = measure_window(server)
            reqs, wall = _drive_upload(server, plan, window_s)
            after = measure_window(server)
            for req in reqs:
                if req.error is None:
                    _check_upload(req)
            _check_cache_counts(reqs, before, after)
            stopped = server.stop()
        except BaseException:
            server.kill()
            raise
        result = _service_result(reqs, setups, stopped)
        ok = [r for r in reqs if r.error is None]
        mb = sum(r.size for r in reqs) / 1e6
        result["named"]["upload_p50_ms"] = (quantile([r.latency_s * 1000 for r in ok], 0.5), "ms", len(ok))
        result["named"]["upload_p90_ms"] = (quantile([r.latency_s * 1000 for r in ok], 0.9), "ms", len(ok))
        result["named"]["upload_mb_per_s"] = (mb / wall, "MB/s", len(reqs))
        result["health"] = {
            "callers": UPLOAD_CALLERS,
            "uploads": len(reqs),
            "planned_repeat_share": sum(r.cls == "hit" for r in reqs) / len(reqs),
            "polls_per_job": sum(r.polls for r in reqs) / len(reqs),
            "setup_samples_s": [round(x, 4) for x in setups],
        }
        if traced:
            result["layers"] = _service_layers(server, before, after)
        return result


def _check_upload(req: Request) -> None:
    """The map is sound, counts every uploaded job, and hits only on repeats."""
    try:
        doc = json.loads(req.payload)
        if doc.get("kind") != "coplot":
            raise BenchError(f"upload analysed as {doc.get('kind')}")
        if doc["workload"]["jobs"] != req.jobs:
            raise BenchError(f"upload of {req.jobs} jobs reported {doc['workload']['jobs']}")
        check_map(doc)
    except (ValueError, KeyError, TypeError) as exc:
        raise BenchError(f"malformed result payload: {exc!r}") from exc
    if req.cache_hit is not (req.cls == "hit"):
        raise BenchError(f"{req.cls} upload of log {req.log} came back with cache_hit={req.cache_hit}")


def _check_cache_counts(reqs: List[Request], before: Dict[str, Any], after: Dict[str, Any]) -> None:
    """The server counted one cache hit per repeat and one compute per fresh log."""
    for counter, cls in (("analysis_cache_hits_total", "hit"), ("analysis_compute_total", "miss")):
        moved = after["counters"].get(counter, 0.0) - before["counters"].get(counter, 0.0)
        planned = sum(r.cls == cls and r.error is None for r in reqs)
        if moved != planned:
            raise BenchError(f"{counter} moved by {moved:g} over {planned} {cls} uploads")


def _drive_upload(server: Server, plan: UploadPlan, window_s: float) -> Tuple[List[Request], float]:
    """Closed loop: each caller uploads, waits for its result, repeats."""
    reqs: List[Request] = []
    lock = threading.Lock()
    t0 = time.monotonic()
    end = t0 + window_s

    errors: List[BaseException] = []

    def caller() -> None:
        try:
            _caller()
        except BaseException as exc:  # re-raised by the main thread after join
            errors.append(exc)

    def _caller() -> None:
        while time.monotonic() < end and not errors:
            req = plan.next()
            with lock:
                reqs.append(req)
            req.due = time.time()
            submit(server, req)
            req.body = b""  # a 3.5 MB log per request would pile up
            deadline = time.monotonic() + REQUEST_TIMEOUT_S
            while not req.done:
                if time.monotonic() > deadline:
                    req.error, req.done = "timed out", True
                    break
                time.sleep(POLL_S)
                poll(server, req)
            plan.done(req)

    others = [threading.Thread(target=caller, name=f"e2ebench-caller{i}")
              for i in range(1, UPLOAD_CALLERS)]
    for thread in others:
        thread.start()
    caller()
    for thread in others:
        thread.join(REQUEST_TIMEOUT_S + 30.0)
        if thread.is_alive():
            raise BenchError("an upload caller is still running after its deadline")
    if errors:
        raise errors[0]
    return reqs, time.monotonic() - t0


# -- results ------------------------------------------------------------------


def _service_result(reqs: List[Request], setups: List[float],
                    stopped: Dict[str, float]) -> Dict[str, Any]:
    hit50, hit90, n_hit = summarize(reqs, "hit")
    miss50, miss90, n_miss = summarize(reqs, "miss")
    failed = sum(r.error is not None for r in reqs)
    if n_hit == 0 or n_miss == 0:
        raise BenchError(f"no completed {'hit' if n_hit == 0 else 'miss'} requests")
    metrics = {
        "setup_s": (median(setups), "s"),
        "miss_p50_ms": (miss50, "ms"),
        "hit_p50_ms": (hit50, "ms"),
        "peak_rss_mb": (stopped["rss_mb"], "MB"),
    }
    named = {
        "upload_miss_p50_ms": (miss50, "ms", n_miss),
        "upload_miss_p90_ms": (miss90, "ms", n_miss),
        "upload_hit_p50_ms": (hit50, "ms", n_hit),
        "upload_hit_p90_ms": (hit90, "ms", n_hit),
        "svc_failed_share": (failed / len(reqs), "ratio", len(reqs)),
        "setup_s": (median(setups), "s", len(setups)),
        "peak_rss_mb": (stopped["rss_mb"], "MB", 1),
    }
    errors = sorted({r.error for r in reqs if r.error})
    samples = [[r.cls, r.label, round(r.latency_s * 1000.0, 3), r.error] for r in reqs]
    return {"attempted": len(reqs), "failed": failed, "metrics": metrics, "named": named,
            "errors": errors, "samples": samples}


def _service_layers(server: Server, before: Dict[str, Any],
                    after: Dict[str, Any]) -> Dict[str, Any]:
    """Per-layer figures of the timed phase of a traced service run.

    Wrapper spans cover the whole server process (warm-up included);
    the program's trace, journal and counters cover the timed phase.
    """
    spans = load_spans(server.spans_dir)
    records = server.trace()[before["trace"]:]
    journal = server.journal()
    new_jobs = after["jobs"] - before["jobs"]
    jobs: Dict[str, Dict[str, Any]] = {}
    for rec in journal:
        if rec.get("type") == "job" and rec.get("id") in new_jobs:
            jobs.setdefault(rec["id"], {}).update(rec)
    n_jobs = max(1, len(jobs))
    program = trace_self_times(records)
    by_id = {r.get("span_id"): r for r in records if r.get("type") == "span"}

    def p50_ms(values: List[float]) -> float:
        return 1000.0 * quantile(values, 0.5)

    submits, results, worker_start = [], [], []
    for rec in records:
        if rec.get("type") != "span":
            continue
        endpoint = rec.get("endpoint")
        if endpoint == "analyses_submit" and rec.get("http_status") == 202:
            submits.append(rec["wall_s"])
        elif endpoint == "analyses_result":
            results.append(rec["wall_s"])
        name = str(rec.get("name", ""))
        if name.startswith("task:service."):
            job = by_id.get(rec.get("parent_id"))
            if job is not None and str(job.get("name", "")).startswith("job:"):
                worker_start.append(rec["ts"] - job["ts"])
    d = {k: after["counters"].get(k, 0.0) - before["counters"].get(k, 0.0)
         for k in set(after["counters"]) | set(before["counters"])}
    hits = d.get("analysis_cache_hits_total", 0.0)
    computes = d.get("analysis_compute_total", 0.0)
    compute = program.get("cache.compute")
    publish = spans.get("runtime.cache.publish")
    lookup = spans.get("runtime.cache.lookup")
    values = {
        "service.upload_submit_ms": p50_ms(submits),
        "service.queue_wait_ms": p50_ms([j["started_ts"] - j["created_ts"] for j in jobs.values()
                                         if j.get("started_ts") and j.get("created_ts")]),
        "service.worker_start_ms": p50_ms(worker_start),
        "service.compute_ms": p50_ms(compute.durations if compute else []),
        "service.publish_ms": p50_ms(publish.durations if publish else []),
        "service.result_ms": p50_ms(results),
        "service.journal_records_per_job": (after["journal"] - before["journal"]) / n_jobs,
        "service.cpu_s_per_job": (after["cpu_s"] - before["cpu_s"]) / n_jobs,
        "service.cache_hit_ratio": hits / (hits + computes) if hits + computes else 0.0,
        "service.shed_total": d.get("analyses_shed_total", 0.0),
        "service.retries_total": d.get("job_retries_total", 0.0),
        "service.worker_crashes_total": d.get("worker_crashes_total", 0.0),
        "obs.trace_records_per_job": (after["trace"] - before["trace"]) / n_jobs,
        "runtime.cache.compute_ms": p50_ms(compute.durations if compute else []),
        "runtime.cache.publish_ms": p50_ms(publish.durations if publish else []),
        "runtime.cache.lookup_ms": p50_ms(lookup.durations if lookup else []),
        "runtime.tasks_failed": sum(j.get("status") != "done" for j in jobs.values()),
    }
    return {
        "values": values,
        "spans": spans,
        "wrapper_self": stats_table(spans),
        "program_self": stats_table(program),
    }
