"""The shared attempt supervisor: one killable child process per attempt.

Covers the outcome classification of :class:`Attempt`, the one pinned
start method both runtimes (``DagExecutor`` pool mode and the service's
``JobRunner``) start their children with, and a failed process start
settling as an ordinary failed attempt.
"""

import errno
import multiprocessing
import os
import time

import pytest

from repro.runtime import DagExecutor, TaskSpec, supervisor
from repro.runtime.supervisor import Attempt, wait_any
from repro.service.app import ServiceApp


def add(a, b):
    return a + b


def snooze(seconds):
    time.sleep(seconds)
    return "slept"


def boom():
    raise RuntimeError("injected failure")


def die(code):
    os._exit(code)


def unpicklable():
    return lambda: None


def start_method():
    """Run in the child: the start method of the process we are in."""
    return multiprocessing.current_process()._start_method


class TestOutcomes:
    def test_done_carries_the_value(self):
        outcome = Attempt(add, (2, 3)).wait()
        assert outcome.kind == "done"
        assert outcome.value == 5
        assert outcome.exitcode == 0

    def test_raise_is_failed_with_typed_message(self):
        outcome = Attempt(boom).wait()
        assert outcome.kind == "failed"
        assert outcome.error == "RuntimeError: injected failure"

    def test_unsendable_value_is_failed(self):
        outcome = Attempt(unpicklable).wait()
        assert outcome.kind == "failed"
        assert "pickle" in outcome.error.lower()

    def test_death_is_crashed_with_exit_code(self):
        outcome = Attempt(die, (70,)).wait()
        assert outcome.kind == "crashed"
        assert outcome.exitcode == 70
        assert outcome.error == "worker process died (exit code 70)"

    def test_deadline_kills_and_reaps(self):
        outcome = Attempt(snooze, (30.0,), timeout_s=0.2).wait()
        assert outcome.kind == "timeout"
        assert outcome.exitcode == -9
        assert outcome.error == "attempt exceeded 0.2s"
        assert 0.2 <= outcome.elapsed_s < 10.0

    def test_stop_predicate_kills(self):
        stop_at = time.monotonic() + 0.2
        outcome = Attempt(
            snooze, (30.0,), stop=lambda: time.monotonic() >= stop_at
        ).wait()
        assert outcome.kind == "stopped"
        assert outcome.exitcode == -9
        assert outcome.elapsed_s < 10.0

    def test_wait_returns_when_the_result_arrives(self):
        # A far deadline is the only timeout wait_any has: returning well
        # before it proves the wake comes from the pipe, not a timer.
        start = time.monotonic()
        outcome = Attempt(snooze, (0.1,), timeout_s=60.0).wait()
        assert outcome.kind == "done"
        assert time.monotonic() - start < 10.0

    def test_wait_any_wakes_on_the_first_of_many(self):
        slow = Attempt(snooze, (30.0,))
        quick = Attempt(add, (1, 1))
        try:
            start = time.monotonic()
            while quick.poll() is None:
                wait_any([slow, quick])
            assert time.monotonic() - start < 10.0
            assert quick.outcome.value == 2
            assert slow.poll() is None
        finally:
            assert slow.kill().kind == "stopped"

    def test_failed_start_is_a_failed_attempt_and_leaks_no_fd(self, monkeypatch):
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc/self/fd to count descriptors")

        def start(proc):
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(supervisor.CONTEXT.Process, "start", start)
        before = len(os.listdir("/proc/self/fd"))
        outcome = Attempt(add, (1, 2)).wait()
        assert len(os.listdir("/proc/self/fd")) == before
        assert outcome.kind == "failed"
        assert "worker start failed" in outcome.error
        assert "Resource temporarily unavailable" in outcome.error


class TestPinnedStartMethod:
    def test_context_is_fork(self):
        assert supervisor.CONTEXT.get_start_method() == "fork"

    def test_both_runtimes_start_children_from_the_pinned_context(
        self, monkeypatch, tmp_path
    ):
        started = []

        class Recorded(supervisor.CONTEXT.Process):
            def start(self):
                started.append(self._start_method)
                super().start()

        monkeypatch.setattr(supervisor.CONTEXT, "Process", Recorded)

        results = DagExecutor(jobs=2).run(
            [TaskSpec(id=f"t{i}", fn=start_method) for i in range(2)]
        )
        assert started == ["fork", "fork"]
        assert {r.value for r in results.values()} == {"fork"}

        started.clear()
        app = ServiceApp(str(tmp_path / "state"), workers=1)
        try:
            _, body = app.submit(
                {
                    "kind": "hurst",
                    "input": {"workload": "CTC", "n_jobs": 300, "seed": 1},
                    "params": {"attributes": ["run_time"], "methods": ["rs"]},
                }
            )
            deadline = time.monotonic() + 120.0
            while app.store.get(body["job_id"])["status"] not in ("done", "error"):
                assert time.monotonic() < deadline, "service job never finished"
                time.sleep(0.05)
            assert app.store.get(body["job_id"])["status"] == "done"
        finally:
            app.close(wait=True)
        assert started == ["fork"]
