"""Trace file tests: v2 round-trip, recorded baselines, torn-tail tolerance."""

import json
import os

import pytest

from repro.obs import TRACE_SCHEMA_VERSION, Tracer, TraceWriter, read_trace

#: The committed perf baseline the CI run-diff gate compares against.
BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks",
    "baseline",
    "trace-quick.jsonl",
)


class TestStreamingRoundTrip:
    def test_writer_streams_header_then_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = TraceWriter(path, trace_id="t0")
        tracer = Tracer(writer, trace_id=writer.trace_id)
        with tracer.span("task:figure2", task="figure2"):
            with tracer.span("mds.solve"):
                pass
        trace = read_trace(path)
        assert trace.schema == TRACE_SCHEMA_VERSION
        assert trace.trace_id == "t0"
        assert not trace.truncated
        assert [s["name"] for s in trace.spans] == ["mds.solve", "task:figure2"]
        assert trace.task_spans["figure2"]["name"] == "task:figure2"

    def test_each_record_is_durable_immediately(self, tmp_path):
        # Records land on disk as they are emitted, not at close (there
        # is no close): a kill -9 after any emit loses nothing prior.
        path = tmp_path / "trace.jsonl"
        writer = TraceWriter(path, trace_id="t0")
        writer.emit({"type": "event", "kind": "probe"})
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["kind"] == "probe"

    def test_two_writers_append_to_one_file(self, tmp_path):
        # Parent writes the header; workers reopen with write_header=False.
        path = tmp_path / "trace.jsonl"
        parent = TraceWriter(path, trace_id="shared")
        worker = TraceWriter(path, trace_id="shared", write_header=False)
        parent.emit({"type": "event", "kind": "parent"})
        worker.emit({"type": "event", "kind": "worker"})
        trace = read_trace(path)
        assert trace.trace_id == "shared"
        assert [e["kind"] for e in trace.events] == ["parent", "worker"]

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_trace(tmp_path / "absent.jsonl")

    def test_reads_idless_task_spans(self):
        # The committed baseline predates span ids: its task spans carry
        # only ``task``.  The run diff keys on that field, so the file
        # must keep reading as-is, with no name or ids synthesized.
        trace = read_trace(BASELINE)
        assert trace.schema == TRACE_SCHEMA_VERSION
        assert not trace.truncated
        assert "param" in trace.task_spans
        rec = trace.task_spans["param"]
        assert rec["compute_s"] > 0
        assert "name" not in rec and "span_id" not in rec
        assert {m["name"] for m in trace.metrics} >= {"cache_hits", "cache_misses"}

    def test_new_writer_repairs_a_torn_tail(self, tmp_path):
        # A resumed run reopens its killed predecessor's trace: the new
        # header must land on a fresh line, not glue onto the fragment.
        path = tmp_path / "trace.jsonl"
        TraceWriter(path, trace_id="old").emit({"type": "event", "kind": "before"})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "span", "name": "torn')
        TraceWriter(path, trace_id="new").emit({"type": "event", "kind": "after"})
        trace = read_trace(path)
        assert trace.truncated
        assert trace.trace_id == "new"
        assert [e["kind"] for e in trace.events] == ["before", "after"]


class TestTornTail:
    def test_torn_final_line_is_tolerated_and_flagged(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = TraceWriter(path, trace_id="t0")
        tracer = Tracer(writer, trace_id="t0")
        with tracer.span("task:done", task="done"):
            pass
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "span", "name": "torn')  # crash mid-append
        trace = read_trace(path)
        assert trace.truncated
        assert "done" in trace.task_spans  # everything before the tear survives

    def test_mid_file_garbage_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = TraceWriter(path, trace_id="t0")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
        writer.emit({"type": "event", "kind": "after"})
        trace = read_trace(path)
        assert trace.truncated
        assert [e["kind"] for e in trace.events] == ["after"]

    def test_non_dict_line_is_flagged(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('["a", "list"]\n')
        trace = read_trace(path)
        assert trace.truncated
        assert trace.records == []

    def test_headerless_fragment_still_reads(self, tmp_path):
        # A trace whose header was lost still yields its records; the
        # schema stays unknown (0) rather than being guessed.
        path = tmp_path / "trace.jsonl"
        records = [
            {"type": "span", "task": "table1", "status": "ok", "wall_s": 2.0, "ts": 1.0},
            {"type": "metric", "name": "cache_hits", "value": 0, "ts": 1.0},
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        trace = read_trace(path)
        assert trace.schema == 0
        assert trace.trace_id is None
        assert not trace.truncated
        assert trace.task_spans["table1"]["wall_s"] == 2.0

    @pytest.mark.parametrize("schema", ["v2", [2], None, 2.5, True, {"v": 2}])
    def test_damaged_header_is_flagged_not_fatal(self, tmp_path, schema):
        path = tmp_path / "trace.jsonl"
        lines = [
            {"type": "header", "schema": schema, "trace_id": "t0"},
            {"type": "span", "task": "table1", "status": "ok", "wall_s": 1.0},
        ]
        path.write_text("\n".join(json.dumps(r) for r in lines) + "\n")
        trace = read_trace(path)
        assert trace.truncated
        assert trace.schema == 0
        assert trace.trace_id == "t0"
        assert "table1" in trace.task_spans
