"""Durable JSONL log tests: the one append/repair/replay behind every log.

The crash property is checked through each real writer — the run
journal, the service job store and the trace writer: cut the file at
any byte, replay returns exactly the records whose JSON was complete
before the cut, and a fresh writer repairs the tail and appends so that
replay returns the surviving prefix plus the new records.
"""

import json
import os
import tempfile

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.obs import Tracer, TraceWriter, read_trace
from repro.runtime import RunJournal
from repro.service.store import JobStore
from repro.util import jsonl

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
)
_records = st.dictionaries(st.text(min_size=1, max_size=6), _scalars, max_size=4)


def _cut(path, fraction):
    """Truncate *path* at ``fraction`` of its length; returns the offset."""
    size = os.path.getsize(path)
    offset = min(size, int(round(fraction * size)))
    with open(path, "rb+") as fh:
        fh.truncate(offset)
    return offset


def _complete_lines(data, offset):
    """``(lines whose JSON ends at or before offset, torn fragment?)``."""
    lines, end = [], 0
    for raw in data.split(b"\n"):
        if raw and end + len(raw) <= offset:
            lines.append(json.loads(raw))
        elif raw and end < offset:
            return lines, True
        end += len(raw) + 1
    return lines, False


def _group(sizes, records):
    """Split *records* into consecutive groups of the drawn sizes."""
    groups, i = [], 0
    for size in sizes:
        if i >= len(records):
            break
        groups.append(records[i : i + size])
        i += size
    if i < len(records):
        groups.append(records[i:])
    return groups


class TestPrimitives:
    def test_encode_is_one_sorted_line(self):
        assert jsonl.encode({"b": 1, "a": 2}) == '{"a": 2, "b": 1}\n'
        # Unencodable values are stringified: a log write never raises.
        assert json.loads(jsonl.encode({"p": object()}))["p"].startswith("<object")

    def test_append_is_durable_group_commit(self, tmp_path):
        path = tmp_path / "log.jsonl"
        jsonl.append(path, jsonl.encode({"n": 1}) + jsonl.encode({"n": 2}))
        records, damaged = jsonl.read(path)
        assert records == [{"n": 1}, {"n": 2}] and not damaged

    def test_read_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            jsonl.read(tmp_path / "absent.jsonl")

    def test_read_skips_and_reports_damage(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a": 1}\n\n[1, 2]\nnot json\n\xff\xfe\n{"b": 2}\n{"c": ')
        records, damaged = jsonl.read(path)
        assert records == [{"a": 1}, {"b": 2}]
        assert damaged

    def test_repair_torn_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        assert not jsonl.repair_torn_tail(path)  # no file yet
        path.write_text("")
        assert not jsonl.repair_torn_tail(path)  # empty
        path.write_text('{"a": 1}\n{"b"')
        assert jsonl.repair_torn_tail(path)
        assert not jsonl.repair_torn_tail(path)  # idempotent
        jsonl.append(path, jsonl.encode({"c": 3}))
        assert jsonl.read(path)[0] == [{"a": 1}, {"c": 3}]


class TestCutAnywhere:
    @given(
        old=st.lists(_records, max_size=6),
        sizes=st.lists(st.integers(1, 3), max_size=6),
        new=st.lists(_records, max_size=3),
        fraction=st.floats(0.0, 1.0),
    )
    def test_raw_log(self, old, sizes, new, fraction):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "log.jsonl")
            for group in _group(sizes, old):
                jsonl.append(path, "".join(jsonl.encode(r) for r in group))
            if not old:
                open(path, "w").close()
            data = open(path, "rb").read()
            offset = _cut(path, fraction)
            prefix, torn = _complete_lines(data, offset)
            records, damaged = jsonl.read(path)
            assert records == prefix == old[: len(prefix)]
            assert damaged == torn
            jsonl.repair_torn_tail(path)
            jsonl.append(path, "".join(jsonl.encode(r) for r in new))
            assert jsonl.read(path)[0] == prefix + new

    @given(
        old=st.lists(
            st.tuples(st.sampled_from("abc"), st.sampled_from(["ok", "failed"]),
                      st.floats(0.0, 100.0)),
            max_size=8,
        ),
        new=st.lists(st.tuples(st.sampled_from("acd"), st.floats(0.0, 100.0)), max_size=3),
        fraction=st.floats(0.0, 1.0),
    )
    def test_run_journal(self, old, new, fraction):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "journal.jsonl")
            journal = RunJournal(path)
            journal.meta(seed=3, ids=["a", "b", "c", "d"])
            for task, status, wall in old:
                journal.record(task, status=status, wall_s=wall)
            data = open(path, "rb").read()
            offset = _cut(path, fraction)
            prefix, _torn = _complete_lines(data, offset)
            assert jsonl.read(path)[0] == prefix

            def fold(lines):
                meta = {k: v for r in lines if r["type"] == "meta" for k, v in r.items()}
                meta.pop("type", None)
                return meta, {r["task"]: r for r in lines if r["type"] == "task"}

            assert RunJournal.load(path) == fold(prefix)
            fresh = RunJournal(path)  # a resumed run: repairs, then appends
            for task, wall in new:
                fresh.record(task, status="ok", attempts=1, wall_s=wall)
            appended = [
                {"type": "task", "task": t, "status": "ok", "key": None, "attempts": 1,
                 "wall_s": round(w, 6)}
                for t, w in new
            ]
            assert jsonl.read(path)[0] == prefix + appended
            assert RunJournal.load(path) == fold(prefix + appended)

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("batch"), st.integers(1, 3)),
                st.tuples(st.just("update"), st.sampled_from(["running", "done", "error"])),
                st.tuples(st.just("crash"), st.sampled_from("xy")),
                st.tuples(st.just("pardon"), st.sampled_from("xy")),
            ),
            max_size=8,
        ),
        new=st.lists(st.sampled_from(["create", "crash"]), max_size=3),
        fraction=st.floats(0.0, 1.0),
    )
    @example(ops=[("batch", 3)], new=["create"], fraction=0.5)  # cut inside a group commit
    def test_job_store(self, ops, new, fraction):
        with tempfile.TemporaryDirectory() as tmp:
            store = JobStore(tmp)
            open(store.path, "a").close()  # a journal exists even with no ops
            created = []
            for op, arg in ops:
                if op == "batch":
                    # Several records queued, then one multi-line group
                    # commit: a cut can land inside the group.
                    for _ in range(arg):
                        job_id = f"j{len(created)}"
                        store.create_deferred(job_id, kind="hurst", key=f"k{len(created) % 2}")
                        created.append(job_id)
                    store.flush()
                elif op == "update" and created:
                    store.update(created[-1], status=arg)
                elif op == "crash":
                    store.record_key_failure(arg)
                elif op == "pardon":
                    store.pardon_key(arg)
            lines = jsonl.read(store.path)[0]
            assert _fold(lines) == _state(store)  # full replay = live state

            data = open(store.path, "rb").read()
            offset = _cut(store.path, fraction)
            prefix, _torn = _complete_lines(data, offset)
            reopened = JobStore(tmp)  # boot recovery: repair, then replay
            assert _state(reopened) == _fold(prefix)
            for i, op in enumerate(new):
                if op == "create":
                    reopened.create(f"n{i}", kind="coplot", key="kn")
                    reopened.update(f"n{i}", status="done")
                else:
                    reopened.record_key_failure("x")
            appended = jsonl.read(store.path)[0][len(prefix):]
            assert len(appended) == sum(2 if op == "create" else 1 for op in new)
            assert _state(JobStore(tmp)) == _fold(prefix + appended) == _state(reopened)

    @given(
        old=st.lists(_records, max_size=6),
        new=st.lists(_records, max_size=3),
        fraction=st.floats(0.0, 1.0),
    )
    def test_trace_writer(self, old, new, fraction):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.jsonl")
            writer = TraceWriter(path, trace_id="old")
            for rec in old:
                writer.emit({**rec, "type": "event"})
            data = open(path, "rb").read()
            offset = _cut(path, fraction)
            prefix, torn = _complete_lines(data, offset)
            trace = read_trace(path)
            header = bool(prefix) and prefix[0]["type"] == "header"
            assert trace.records == prefix[1:]
            assert trace.trace_id == ("old" if header else None)
            assert trace.truncated == torn
            # A resumed run's writer: repairs the tail, heads the trace
            # anew, and its spans land after the surviving prefix.
            resumed = TraceWriter(path, trace_id="new")
            tracer = Tracer(resumed, trace_id="new")
            for rec in new:
                resumed.emit({**rec, "type": "event"})
            with tracer.span("after"):
                pass
            trace = read_trace(path)
            assert trace.trace_id == "new" and trace.schema == 2
            assert trace.records[: len(prefix) - header] == prefix[1:]
            tail = trace.records[len(prefix) - header :]
            assert tail[:-1] == [{**rec, "type": "event"} for rec in new]
            assert tail[-1]["name"] == "after"


def _fold(lines):
    """Last-wins model of the job store's replay: jobs by id, poison by key."""
    jobs, order, poison = {}, [], {}
    for rec in lines:
        if rec.get("type") == "job":
            if rec["id"] not in jobs:
                order.append(rec["id"])
            jobs[rec["id"]] = {k: v for k, v in rec.items() if k != "type"}
        elif rec.get("type") == "poison":
            poison[rec["key"]] = rec["count"]
    return [jobs[j] for j in order], {k: poison.get(k, 0) for k in ("x", "y")}


def _state(store):
    return store.jobs(), {k: store.poison_count(k) for k in ("x", "y")}
