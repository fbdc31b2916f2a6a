"""Kill-and-recover drill: ``python -m repro.service.drill``.

The resilience counterpart of :mod:`repro.service.smoke`: boots the
*real* server as a subprocess (``python -m repro.service``), drives it
over HTTP, then murders it.

The drill:

1. boots the service under ``--chaos`` (default: job A's first attempt
   raises an injected fault — the retry path; job B's first attempt
   hangs a few seconds — a guaranteed mid-compute window),
2. submits job A (cheap Hurst analysis) and waits for ``done``; submits
   job B (co-plot) and waits until it is ``running``,
3. SIGKILLs the server mid-job and *tears the journal tail* — a torn,
   newline-less fragment, exactly what a crash mid-append leaves,
4. reboots the service on the same state dir and gates on full
   recovery:

   - **zero lost terminal states**: A is still ``done`` after the kill
     and the tear,
   - B is recovered and reaches ``done``,
   - **no duplicate computes**: resubmitting A's exact spec is
     answered from the runtime cache at submit (``202 done``, one
     journal record), and the rebooted server's own ``/metrics`` show
     exactly one compute (B's) since boot,
   - nothing is left ``queued``/``running``; ``/healthz`` is ok,

5. shuts the survivor down gracefully (SIGTERM) and requires exit 0.

Exits nonzero on the first broken invariant; ``make service-chaos``
wires this into CI.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.parse
from typing import Any, Dict, List, Optional

from repro.runtime.faults import tear_journal
from repro.service.smoke import _metric, _poll_done, _request, journal_lines
from repro.service.store import JOBS_JOURNAL_NAME
from repro.archive.synthesize import synthesize_workload
from repro.workload.swf import render_swf_text

__all__ = ["main", "run_drill"]

#: Default chaos: A (hurst) fails-then-recovers; B (coplot) hangs long
#: enough that the drill reliably kills the server mid-compute.
DEFAULT_CHAOS = "7:hurst*=raise,p=1,max_hits=1;coplot*=hang,hang_s=3,max_hits=1"

_LISTEN_RE = re.compile(r"listening on http://([\d.]+):(\d+)")


class _Server:
    """One ``python -m repro.service`` subprocess under drill control."""

    def __init__(self, state_dir: str, *, chaos: Optional[str], log_prefix: str) -> None:
        argv = [
            sys.executable,
            "-m",
            "repro.service",
            "--port",
            "0",
            "--state-dir",
            state_dir,
            "--workers",
            "2",
            "--job-retries",
            "2",
            "--drain-timeout-s",
            "30",
        ]
        if chaos:
            argv += ["--chaos", chaos]
        self.log_prefix = log_prefix
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=os.environ.copy(),
        )
        self.base = self._await_listening()
        self._drain = threading.Thread(target=self._pump, daemon=True)
        self._drain.start()

    def _await_listening(self, timeout_s: float = 60.0) -> str:
        deadline = time.monotonic() + timeout_s
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited before listening (rc={self.proc.poll()})"
                )
            print(f"{self.log_prefix}| {line.rstrip()}", flush=True)
            found = _LISTEN_RE.search(line)
            if found:
                return f"http://{found.group(1)}:{found.group(2)}"
        raise RuntimeError("server never reported a listening address")

    def _pump(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            print(f"{self.log_prefix}| {line.rstrip()}", flush=True)

    def kill9(self) -> None:
        self.proc.kill()  # SIGKILL: no drain, no atexit, no mercy
        self.proc.wait()

    def stop(self, timeout_s: float = 60.0) -> int:
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout_s)


def _submit(base: str, spec: Dict[str, Any], swf: bytes) -> Dict[str, Any]:
    spec_q = urllib.parse.quote(json.dumps(spec))
    status, body, _ = _request(
        f"{base}/v1/analyses?spec={spec_q}", swf, content_type="application/octet-stream"
    )
    if status != 202:
        raise AssertionError(f"submit returned HTTP {status}: {body[:300]!r}")
    return json.loads(body)


def _wait_running(base: str, job_id: str, *, timeout_s: float) -> Dict[str, Any]:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        _, body, _ = _request(f"{base}/v1/analyses/{job_id}")
        job = json.loads(body)["job"]
        if job["status"] == "running":
            return job
        if job["status"] not in ("queued", "running"):
            raise AssertionError(f"job {job_id} went {job['status']} before the kill")
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never reached running within {timeout_s}s")


def run_drill(state_dir: str, *, chaos: Optional[str], timeout_s: float = 120.0) -> List[str]:
    """One kill-and-recover pass; returns failure messages (empty = pass)."""
    failures: List[str] = []

    def check(ok: bool, what: str) -> bool:
        print(("PASS" if ok else "FAIL") + f" {what}", flush=True)
        if not ok:
            failures.append(what)
        return ok

    swf = render_swf_text(synthesize_workload("CTC", n_jobs=400, seed=7)).encode()
    spec_a = {"kind": "hurst", "params": {"attributes": ["run_time"], "methods": ["rs"]}}
    spec_b = {"kind": "coplot", "params": {"label": "DRILL", "seed": 0, "n_init": 2}}

    # Boot 1: one cheap job to done, one heavier job to running, then kill -9.
    server = _Server(state_dir, chaos=chaos, log_prefix="boot1")
    job_a = job_b = None
    try:
        submit_a = _submit(server.base, spec_a, swf)
        job_a = _poll_done(server.base, submit_a["job_id"], timeout_s=timeout_s)
        check(
            job_a["status"] == "done",
            f"boot1: job A done (got {job_a['status']}: {job_a.get('error')})",
        )
        if chaos and "hurst*=raise" in chaos:
            check(
                job_a.get("attempts", 1) >= 2,
                f"boot1: injected fault retried (attempts={job_a.get('attempts')})",
            )
        submit_b = _submit(server.base, spec_b, swf)
        job_b = _wait_running(server.base, submit_b["job_id"], timeout_s=timeout_s)
        check(True, "boot1: job B running — killing the server mid-job")
    finally:
        server.kill9()

    # The crash also tears the journal tail, as a real mid-append kill would.
    journal = os.path.join(state_dir, JOBS_JOURNAL_NAME)
    tear_journal(journal, "drill-tear")
    check(os.path.exists(journal), "journal torn after the kill")

    # Boot 2: same state dir; gate on full recovery.
    server = _Server(state_dir, chaos=chaos, log_prefix="boot2")
    try:
        _, body, _ = _request(f"{server.base}/v1/analyses/{job_a['id']}")
        job = json.loads(body)["job"]
        check(
            job["status"] == "done",
            f"boot2: zero lost terminal states — job A still done (got {job['status']})",
        )
        job = _poll_done(server.base, job_b["id"], timeout_s=timeout_s)
        check(
            job["status"] == "done" and job.get("recovered") is True,
            f"boot2: job B recovered to done (got {job['status']}: {job.get('error')})",
        )
        resubmit = _submit(server.base, spec_a, swf)
        lines = journal_lines(state_dir, resubmit["job_id"])
        check(
            resubmit["status"] == "done" and lines == 1,
            f"boot2: resubmitted job A answered 202 done with one journal record "
            f"(got {resubmit['status']}, {lines} record(s))",
        )
        job = _poll_done(server.base, resubmit["job_id"], timeout_s=timeout_s)
        check(
            job["status"] == "done" and job.get("cache_hit") is True,
            "boot2: resubmitted job A is a cache hit",
        )
        _, body, _ = _request(f"{server.base}/metrics")
        computes = int(_metric(body.decode(), "analysis_compute_total"))
        check(
            computes == 1,
            f"boot2: no duplicate computes — exactly B's (compute_total={computes})",
        )
        _, body, _ = _request(f"{server.base}/healthz")
        health = json.loads(body)
        counts = health.get("jobs", {})
        check(
            health.get("status") == "ok"
            and counts.get("queued", 0) == 0
            and counts.get("running", 0) == 0,
            f"boot2: healthz ok, nothing stuck in flight (jobs={counts})",
        )
    finally:
        rc = server.stop()
    check(rc == 0, f"boot2: graceful shutdown exits 0 (got {rc})")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.drill",
        description="Kill -9 a live service mid-job and gate on full recovery.",
    )
    parser.add_argument("--state-dir", default=None, help="keep state here (default: temp dir)")
    parser.add_argument(
        "--chaos",
        default=DEFAULT_CHAOS,
        help="chaos spec for both boots; '' disables (default %(default)r)",
    )
    parser.add_argument("--timeout-s", type=float, default=120.0)
    args = parser.parse_args(argv)

    state_dir = args.state_dir or tempfile.mkdtemp(prefix="repro-service-drill-")
    print(f"drill: state dir {state_dir}", flush=True)
    try:
        failures = run_drill(state_dir, chaos=args.chaos or None, timeout_s=args.timeout_s)
    finally:
        if args.state_dir is None:
            shutil.rmtree(state_dir, ignore_errors=True)
    if failures:
        print(f"drill: {len(failures)} check(s) failed", flush=True)
        return 1
    print("drill: all checks passed", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
