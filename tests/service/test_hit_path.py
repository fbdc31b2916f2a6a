"""Cache hits answered at submit: one ``done`` record, no worker, no parse."""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.runtime import supervisor
from repro.runtime.faults import corrupt_file
from repro.service import app as app_module
from repro.service import jobs as jobs_module
from repro.service.app import ServiceApp
from repro.service.errors import ServiceError
from repro.util import jsonl


def _hurst(seed):
    return {
        "kind": "hurst",
        "input": {"workload": "CTC", "n_jobs": 300, "seed": seed},
        "params": {"attributes": ["run_time"], "methods": ["rs"]},
    }


def _wait_done(app, job_id, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while True:
        record = app.store.get(job_id)
        if record["status"] in ("done", "error", "cancelled", "poisoned"):
            return record
        assert time.monotonic() < deadline, f"job stuck {record['status']}"
        time.sleep(0.02)


def _journal(app):
    try:
        records, _damaged = jsonl.read(app.store.path)
    except FileNotFoundError:
        return []
    return [r for r in records if r.get("type") == "job"]


def _lines_for(app, job_id):
    return sum(r.get("id") == job_id for r in _journal(app))


def _refusal(call):
    with pytest.raises(ServiceError) as excinfo:
        call()
    return excinfo.value


@pytest.fixture
def make_app(tmp_path):
    """Socket-less services on *tmp_path* state dirs, closed at teardown."""
    apps = []

    def factory(state="state", **kwargs):
        app = ServiceApp(str(tmp_path / state), **kwargs)
        apps.append(app)
        return app

    yield factory
    for app in apps:
        app.close(wait=True)


def _computed(app, doc):
    """Submit *doc* as a miss and wait for its result to be cached."""
    status, body = app.submit(json.loads(json.dumps(doc)))
    assert status == 202 and body["status"] == "queued", body
    record = _wait_done(app, body["job_id"])
    assert record["status"] == "done" and record["cache_hit"] is False, record
    return body


class TestHitAtSubmit:
    def test_hit_while_queue_full_is_done_and_miss_is_shed(self, make_app):
        gate = threading.Event()
        gate.set()
        app = make_app(workers=1, queue_depth=1, before_execute=lambda job_id: gate.wait(60))
        try:
            cached = _computed(app, _hurst(1))
            gate.clear()
            app.submit(_hurst(2))  # held by the worker
            app.submit(_hurst(3))  # waits in the queue: capacity 2 is taken
            assert app.runner.queue_stats()["headroom"] == 0

            lines = len(_journal(app))
            status, body = app.submit(_hurst(1))
            assert status == 202 and body["status"] == "done", body
            assert body["key"] == cached["key"]
            assert len(_journal(app)) == lines + 1
            record = app.store.get(body["job_id"])
            assert record["cache_hit"] is True and record["attempts"] == 0
            assert "started_ts" not in record
            assert app.runner.queue_stats()["headroom"] == 0  # took no slot

            err = _refusal(lambda: app.submit(_hurst(4)))
            assert err.code == "over_capacity" and err.status == 429
            assert len(_journal(app)) == lines + 1  # the 429 wrote nothing
        finally:
            gate.set()

    def test_damaged_entry_is_quarantined_and_recomputed(self, make_app):
        app = make_app(workers=1)
        first = _computed(app, _hurst(1))
        entry = app.runner.cache.entry_path(first["key"])
        corrupt_file(entry)

        status, body = app.submit(_hurst(1))
        assert status == 202 and body["status"] == "queued", body
        assert entry.with_suffix(".corrupt").exists()
        record = _wait_done(app, body["job_id"])
        assert record["status"] == "done" and record["cache_hit"] is False
        assert app.metrics.counter("analysis_compute_total") == 2
        assert app.metrics.counter("analysis_cache_hits_total") == 0

    def test_hit_record_survives_reboot(self, make_app):
        app = make_app(workers=1)
        _computed(app, _hurst(1))
        _, hit = app.submit(_hurst(1))
        assert hit["status"] == "done"
        payload = app.job_result(hit["job_id"])
        app.close(wait=True)

        app2 = make_app(workers=1)
        assert app2.recovered_jobs == 0  # born done: nothing to re-enqueue
        record = app2.store.get(hit["job_id"])
        assert record["status"] == "done" and record["cache_hit"] is True
        assert record["attempts"] == 0
        assert _lines_for(app2, hit["job_id"]) == 1
        assert app2.job_result(hit["job_id"]) == payload
        assert os.path.isfile(os.path.join(record["run_dir"], "result.json"))

    def test_quarantined_key_still_answers_410(self, make_app):
        app = make_app(workers=1, poison_threshold=2)
        first = _computed(app, _hurst(1))
        for _ in range(2):
            app.store.record_key_failure(first["key"])
        lines = len(_journal(app))
        err = _refusal(lambda: app.submit(_hurst(1)))
        assert err.code == "quarantined" and err.status == 410
        assert len(_journal(app)) == lines

    def test_draining_server_refuses_a_hit(self, make_app):
        app = make_app(workers=1)
        _computed(app, _hurst(1))
        app.runner.drain()  # the runner closes first during a shutdown
        err = _refusal(lambda: app.submit(_hurst(1)))
        assert err.code == "shutting_down" and err.status == 503
        app.close(wait=True)
        err = _refusal(lambda: app.submit(_hurst(1)))
        assert err.code == "shutting_down"

    def test_hit_starts_no_process_parses_nothing_and_fsyncs_once(
        self, make_app, small_swf, monkeypatch
    ):
        app = make_app(workers=1)
        doc = {"kind": "coplot", "params": {"seed": 0, "n_init": 2}}
        status, body = app.submit(json.loads(json.dumps(doc)), upload_body=small_swf)
        assert status == 202 and body["status"] == "queued"
        assert _wait_done(app, body["job_id"])["status"] == "done"

        def forbidden(*args, **kwargs):
            raise AssertionError("a cache hit must not start or parse anything")

        appends = []
        real_append = jsonl.append

        def counting_append(path, text):
            appends.append((path, text))
            return real_append(path, text)

        monkeypatch.setattr(supervisor.CONTEXT, "Process", forbidden)
        monkeypatch.setattr(jobs_module, "Attempt", forbidden)
        monkeypatch.setattr(app_module, "read_swf", forbidden)
        monkeypatch.setattr(jsonl, "append", counting_append)

        status, hit = app.submit(json.loads(json.dumps(doc)), upload_body=small_swf)
        assert status == 202 and hit["status"] == "done", hit
        assert hit["key"] == body["key"]
        journal_appends = [text for path, text in appends if path == app.store.path]
        assert len(journal_appends) == 1
        assert json.loads(journal_appends[0])["id"] == hit["job_id"]
        assert app.job_result(hit["job_id"]) == app.job_result(body["job_id"])

    def test_malformed_upload_is_still_400_on_a_miss(self, make_app):
        app = make_app(workers=1)
        err = _refusal(
            lambda: app.submit({"kind": "coplot"}, upload_body=b"not\nan SWF log\n")
        )
        assert err.code == "bad_swf" and err.status == 400
        assert _journal(app) == []


class TestHitTrace:
    def test_submit_span_names_the_job_and_the_hit(self, service_factory, http, poll_done):
        svc = service_factory(workers=1)
        doc = json.dumps(_hurst(1)).encode()
        _, miss, _ = http(f"{svc['base']}/v1/analyses", doc)
        poll_done(svc["base"], miss["job_id"])
        status, hit, _ = http(f"{svc['base']}/v1/analyses", doc)
        assert status == 202 and hit["status"] == "done", hit

        records, _ = jsonl.read(os.path.join(svc["state_dir"], "trace.jsonl"))
        submits = {
            r.get("job"): r
            for r in records
            if r.get("type") == "span" and r.get("endpoint") == "analyses_submit"
        }
        assert submits[miss["job_id"]]["cache_hit"] is False
        assert submits[hit["job_id"]]["cache_hit"] is True
        # The hit's only trace record is its request span: no job span.
        names = {r.get("name") for r in records}
        assert f"job:{miss['job_id']}" in names
        assert f"job:{hit['job_id']}" not in names


class TestPublishOrder:
    @pytest.mark.parametrize(
        "chaos, status, counter",
        [
            (None, "done", "analyses_completed_total"),
            ("1:hurst*=raise,p=1", "error", "analyses_failed_total"),
        ],
    )
    def test_terminal_record_follows_its_slot_and_counter(
        self, make_app, monkeypatch, chaos, status, counter
    ):
        """A poller that sees the terminal state also sees the freed slot
        and the counter that goes with it."""
        app = make_app(workers=1, queue_depth=0, job_retries=0, chaos=chaos)
        seen = []
        real_update = app.store.update

        def update(job_id, **fields):
            if fields.get("status") in ("done", "error", "cancelled", "poisoned"):
                seen.append(
                    (fields["status"], app.runner.queue_stats()["active"], app.metrics.counter(counter))
                )
            return real_update(job_id, **fields)

        monkeypatch.setattr(app.store, "update", update)
        _, body = app.submit(_hurst(1))
        assert _wait_done(app, body["job_id"])["status"] == status
        assert seen == [(status, 0, 1)]
