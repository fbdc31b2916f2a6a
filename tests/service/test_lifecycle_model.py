"""Model-based test of the service's job lifecycle.

A Hypothesis state machine drives a socket-less :class:`ServiceApp`
(``workers=1, queue_depth=1``) with random sequences of submits (fresh,
cache hits and in-flight duplicates of three cheap specs, one at a time
or in a burst that overflows the queue), cancels, wait-idle and graceful
reboots, and checks every answer against a small reference model of the
lifecycle.

Jobs are held in ``before_execute`` until a wait-idle or a reboot opens
the gate, so between those steps nothing runs in the background: the
single worker holds the oldest live job, the rest wait in the queue, and
every admission, dedupe and cancel answer is predictable.

Invariants:

* every job accepted with a ``202`` reaches exactly one terminal state,
  and that state survives a reboot;
* a refused submit (``409``, ``410``, ``429``) or cancel (``409``)
  appends no journal line;
* a submit whose result is cached is answered ``202 done`` with exactly
  one journal line, even while the queue is full;
* the analyses computed across all boots never outnumber the distinct
  cache keys submitted.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import threading
import time

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.service.analyses import parse_analysis_request, spec_cache_key
from repro.service.app import ServiceApp
from repro.service.errors import ServiceError
from repro.service.store import TERMINAL_STATES
from repro.util import jsonl

#: Three cheap analyses with three distinct cache keys.
SPECS = [
    {
        "kind": "hurst",
        "input": {"workload": "CTC", "n_jobs": 300, "seed": seed},
        "params": {"attributes": ["run_time"], "methods": ["rs"]},
    }
    for seed in (1, 2, 3)
]

CAPACITY = 2  # workers + queue_depth
TIMEOUT_S = 60.0


def _wait_for(predicate, what: str) -> None:
    deadline = time.monotonic() + TIMEOUT_S
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


class LifecycleMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.state_dir = tempfile.mkdtemp(prefix="repro-lifecycle-")
        self.gate = threading.Event()
        self.entered: list = []
        self.app = self._boot()
        self.keys = [
            spec_cache_key(parse_analysis_request(doc), self.app.runner.cache) for doc in SPECS
        ]
        # The reference model.
        self.cached: set = set()  # keys with a published result
        self.live: list = []  # accepted, not yet terminal, holding a slot; oldest first
        self.key_of: dict = {}
        self.cancel_requested: set = set()  # live jobs whose cancel awaits the worker
        self.expect_hit: dict = {}  # live job -> its key was cached when accepted
        self.terminal: dict = {}  # job -> the terminal status it must keep
        self.computes_before_boot = 0

    # -- plumbing ------------------------------------------------------------

    def _hold(self, job_id: str) -> None:
        self.entered.append(job_id)
        self.gate.wait(TIMEOUT_S)

    def _boot(self) -> ServiceApp:
        return ServiceApp(self.state_dir, workers=1, queue_depth=1, before_execute=self._hold)

    def _journal(self) -> list:
        try:
            records, _damaged = jsonl.read(self.app.store.path)
        except FileNotFoundError:  # nothing journaled yet
            return []
        return [r for r in records if r.get("type") == "job"]

    def _lines_for(self, job_id: str) -> int:
        return sum(r.get("id") == job_id for r in self._journal())

    def _computes(self) -> int:
        return int(self.app.metrics.counter("analysis_compute_total"))

    def _settle(self) -> None:
        """Check the live jobs' terminal states once the gate has opened."""
        for job_id in self.live:
            record = self.app.store.get(job_id)
            if job_id in self.cancel_requested:
                assert record["status"] == "cancelled", record
            else:
                assert record["status"] == "done", record
                assert record["cache_hit"] is self.expect_hit[job_id], record
                self.cached.add(self.key_of[job_id])
            self.terminal[job_id] = record["status"]
        self.live, self.cancel_requested, self.expect_hit = [], set(), {}

    # -- rules ---------------------------------------------------------------

    @rule(index=st.integers(0, len(SPECS) - 1))
    def submit(self, index: int) -> None:
        self._submit(index)

    @precondition(lambda self: self.cached)
    @rule(pick=st.integers(0, 63))
    def resubmit_cached(self, pick: int) -> None:
        cached = [i for i, key in enumerate(self.keys) if key in self.cached]
        self._submit(cached[pick % len(cached)])

    @rule()
    def burst(self) -> None:
        """Every spec back to back: overflows the queue unless all hit."""
        for index in range(len(SPECS)):
            self._submit(index)

    def _submit(self, index: int) -> None:
        key = self.keys[index]
        in_flight = any(self.key_of[j] == key for j in self.live)
        lines = len(self._journal())
        try:
            status, body = self.app.submit(json.loads(json.dumps(SPECS[index])))
        except ServiceError as err:
            status, body = err.status, err.body()

        if key in self.cached:
            # Answered from the cache at submit: terminal on arrival, one
            # journal line, no slot taken, whatever the queue holds.
            assert status == 202 and body["status"] == "done", body
            record = self.app.store.get(body["job_id"])
            assert record["status"] == "done" and record["cache_hit"] is True, record
            assert "started_ts" not in record and record["attempts"] == 0, record
            assert self._lines_for(body["job_id"]) == 1
            assert len(self._journal()) == lines + 1
            self.key_of[body["job_id"]] = key
            self.terminal[body["job_id"]] = "done"
            return
        if in_flight:
            assert status == 409 and body["error"]["code"] == "already_in_flight", body
        elif len(self.live) >= CAPACITY:
            assert status == 429 and body["error"]["code"] == "over_capacity", body
        else:
            assert status == 202 and body["status"] == "queued", body
        if status != 202:
            assert len(self._journal()) == lines, "a refused submit wrote the journal"
            return
        job_id = body["job_id"]
        assert self._lines_for(job_id) == 1
        self.key_of[job_id] = key
        self.expect_hit[job_id] = key in self.cached
        self.live.append(job_id)
        if len(self.live) == 1:  # the idle worker picks it up and holds it
            _wait_for(lambda: job_id in self.entered, f"job {job_id} pickup")

    @precondition(lambda self: self.key_of)
    @rule(pick=st.integers(0, 63))
    def cancel(self, pick: int) -> None:
        ids = list(self.key_of)  # acceptance order
        job_id = ids[pick % len(ids)]
        lines = len(self._journal())
        try:
            result = self.app.cancel_job(job_id)
            status = 200
        except ServiceError as err:
            status, result = err.status, err.body()
        if job_id in self.terminal:
            assert status == 409 and result["error"]["code"] == "not_cancellable", result
            assert len(self._journal()) == lines, "a refused cancel wrote the journal"
        elif job_id == self.live[0]:
            # Held by the worker: the cancel lands when the worker moves on.
            assert status == 200, result
            assert len(self._journal()) == lines
            self.cancel_requested.add(job_id)
        else:
            assert status == 200 and result["job"]["status"] == "cancelled", result
            assert len(self._journal()) == lines + 1
            self.live.remove(job_id)
            self.terminal[job_id] = "cancelled"

    def _idle(self) -> bool:
        """Every live job's terminal record is on disk and its slot is free."""
        last = {r["id"]: r["status"] for r in self._journal()}
        return (
            all(last[j] in TERMINAL_STATES for j in self.live)
            and self.app.runner.queue_stats()["active"] == 0
        )

    @rule()
    def wait_idle(self) -> None:
        self.gate.set()
        _wait_for(self._idle, "the queue to drain")
        self.gate.clear()
        self._settle()

    @rule()
    def reboot(self) -> None:
        self.gate.set()
        assert self.app.close(wait=True) == []
        self._settle()
        self.computes_before_boot += self._computes()
        self.gate.clear()
        self.app = self._boot()
        assert self.app.recovered_jobs == 0
        assert self.app.poisoned_on_boot == 0

    # -- invariants ----------------------------------------------------------

    @invariant()
    def terminal_states_hold(self) -> None:
        for job_id, status in self.terminal.items():
            assert self.app.store.get(job_id)["status"] == status, job_id

    @invariant()
    def one_terminal_state_per_job(self) -> None:
        seen: dict = {}
        for record in self._journal():
            first = seen.get(record["id"])
            if first is not None:
                assert record["status"] == first, f"job {record['id']} left {first}"
            elif record.get("status") in TERMINAL_STATES:
                seen[record["id"]] = record["status"]

    @invariant()
    def computes_within_distinct_keys(self) -> None:
        total = self.computes_before_boot + self._computes()
        assert total <= len(set(self.key_of.values()))

    def teardown(self) -> None:
        self.gate.set()
        try:
            self.app.close(wait=True)
        finally:
            shutil.rmtree(self.state_dir, ignore_errors=True)


TestLifecycleModel = LifecycleMachine.TestCase
TestLifecycleModel.settings = settings(
    max_examples=8,
    stateful_step_count=8,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
