"""Run-summary tests: the digest over streamed task-summary spans."""

from repro.obs import TraceWriter, digest, read_trace


def _task_summary(writer, task, **fields):
    # The record shape the runner streams once per task.
    writer.emit(
        {
            "type": "span",
            "name": "task.summary",
            "trace_id": writer.trace_id,
            "span_id": f"s-{task}",
            "parent_id": None,
            "task": task,
            **fields,
        }
    )


class TestSummary:
    def test_empty(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        TraceWriter(path)
        assert "no tasks" in digest(read_trace(path).task_spans)

    def test_digest_mentions_counts(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = TraceWriter(path)
        _task_summary(writer, "a", status="ok", wall_s=1.0, cache_hit=True, retries=0)
        _task_summary(
            writer, "b", status="failed", wall_s=2.0, cache_hit=False, retries=2, peak_rss_kb=4096
        )
        line = digest(read_trace(path).task_spans)
        assert "2 task(s)" in line
        assert "1 failed" in line and "1 ok" in line
        assert "cache 1 hit / 1 miss" in line
        assert "2 retrie(s)" in line
        assert "3.0s total" in line
