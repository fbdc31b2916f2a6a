"""End-to-end tests of the experiments CLI on the runtime engine.

Covers the acceptance contract of the runtime subsystem: cached runs
are byte-identical to fresh ones, parallel runs match serial runs,
traces are valid JSONL with one span per task, and failures/claim
misses surface as nonzero exit codes.
"""

import json
import os

import pytest

from repro.experiments.common import Claim
from repro.experiments.registry import REGISTRY, ExperimentSpec, validate_registry
from repro.experiments.runner import EXIT_CLAIM_MISS, EXIT_OK, EXIT_TASK_FAILURE, main

#: A deliberately cheap experiment pair for end-to-end runs.
_FAST = ["figure2", "table2"]


def _run(tmp_path, tag, extra):
    out_dir = str(tmp_path / f"out-{tag}")
    argv = [*_FAST, "--quick", "--out", out_dir, "--cache-dir", str(tmp_path / f"cache-{tag}"), *extra]
    assert main(argv) == EXIT_OK
    return out_dir


# Observability sidecars carry real wall times and fresh trace ids;
# determinism is a claim about the *experiment* artifacts.
_SIDECARS = {"journal.jsonl", "trace.jsonl", "metrics.json", "profiles"}


def _read_artifacts(out_dir):
    latest = os.path.join(out_dir, "latest")
    return {
        name: open(os.path.join(latest, name), "rb").read()
        for name in sorted(os.listdir(latest))
        if name not in _SIDECARS
    }


class TestDeterminism:
    def test_cached_run_byte_identical_to_fresh(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        out1 = str(tmp_path / "o1")
        out2 = str(tmp_path / "o2")
        assert main([*_FAST, "--quick", "--out", out1, "--cache-dir", cache]) == EXIT_OK
        capsys.readouterr()
        assert main([*_FAST, "--quick", "--out", out2, "--cache-dir", cache]) == EXIT_OK
        assert "cached" in capsys.readouterr().out
        assert _read_artifacts(out1) == _read_artifacts(out2)

    def test_parallel_run_matches_serial(self, tmp_path, capsys):
        serial = _run(tmp_path, "serial", ["--jobs", "1"])
        parallel = _run(tmp_path, "parallel", ["--jobs", "4"])
        assert _read_artifacts(serial) == _read_artifacts(parallel)

    def test_seed_changes_cache_key(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["table2", "--quick", "--cache-dir", cache]) == EXIT_OK
        capsys.readouterr()
        assert main(["table2", "--quick", "--seed", "7", "--cache-dir", cache]) == EXIT_OK
        assert "cached" not in capsys.readouterr().out


def _run_trace(out_dir):
    """The records of the latest run's streamed ``trace.jsonl``."""
    path = os.path.join(out_dir, "latest", "trace.jsonl")
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _summaries(records):
    return [r for r in records if r["type"] == "span" and r["name"] == "task.summary"]


class TestTrace:
    def test_trace_emits_one_span_per_task(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        cache = str(tmp_path / "cache")
        assert main([*_FAST, "--quick", "--out", out, "--cache-dir", cache]) == EXIT_OK
        records = _run_trace(out)
        assert records[0]["type"] == "header"
        spans = _summaries(records)
        assert sorted(s["task"] for s in spans) == sorted(_FAST)
        for span in spans:
            assert span["status"] == "ok"
            assert span["cache_hit"] is False
            assert span["retries"] == 0
            assert span["wall_s"] > 0
            # v2 shape: own ids, root placement beside the run span.
            assert span["span_id"] and span["trace_id"] == records[0]["trace_id"]
            assert span["parent_id"] is None

    def test_trace_marks_cache_hits(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        cache = str(tmp_path / "cache")
        assert main(["figure2", "--cache-dir", cache]) == EXIT_OK
        assert main(["figure2", "--cache-dir", cache, "--out", out]) == EXIT_OK
        records = _run_trace(out)
        assert _summaries(records)[0]["cache_hit"] is True
        metrics = {r["name"]: r["value"] for r in records if r["type"] == "metric"}
        assert metrics["cache_hits"] == 1
        assert metrics["cache_misses"] == 0

    def test_trace_flag_is_gone(self, tmp_path, capsys):
        # The run dir's trace.jsonl streams everything the flat file held.
        with pytest.raises(SystemExit):
            main(["figure2", "--cache-dir", str(tmp_path / "c"), "--trace", str(tmp_path / "t")])


def _boom_experiment(**kwargs):
    raise RuntimeError("synthetic experiment failure")


class _MissResult:
    def render(self):
        return "=== synthetic: always misses ==="

    @property
    def claims(self):
        return [Claim("synthetic claim", "42", "41", False)]


def _missing_experiment(**kwargs):
    return _MissResult()


@pytest.fixture
def synthetic(monkeypatch):
    """Inject one always-failing and one claim-missing experiment."""
    monkeypatch.setitem(
        REGISTRY,
        "boomx",
        ExperimentSpec(id="boomx", run=_boom_experiment, seeded=False, quick_kwargs={}),
    )
    monkeypatch.setitem(
        REGISTRY,
        "missx",
        ExperimentSpec(id="missx", run=_missing_experiment, seeded=False, quick_kwargs={}),
    )


class TestExitCodes:
    def test_experiment_exception_is_nonzero_and_batch_completes(
        self, synthetic, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        code = main(["boomx", "figure2", "--cache-dir", cache])
        out = capsys.readouterr().out
        assert code == EXIT_TASK_FAILURE
        assert "synthetic experiment failure" in out
        assert "Figure 2" in out, "failure aborted the rest of the batch"

    def test_claim_miss_exits_nonzero_by_default(self, synthetic, tmp_path, capsys):
        assert main(["missx", "--cache-dir", str(tmp_path / "c")]) == EXIT_CLAIM_MISS

    def test_no_fail_on_miss_downgrades_to_zero(self, synthetic, tmp_path, capsys):
        code = main(["missx", "--cache-dir", str(tmp_path / "c"), "--no-fail-on-miss"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "did not hold" in out

    def test_failure_beats_claim_miss(self, synthetic, tmp_path, capsys):
        code = main(["boomx", "missx", "--cache-dir", str(tmp_path / "c")])
        assert code == EXIT_TASK_FAILURE

    def test_failed_experiment_span_recorded(self, synthetic, tmp_path, capsys):
        out = str(tmp_path / "out")
        cache = str(tmp_path / "cache")
        assert main(["boomx", "--cache-dir", cache, "--out", out]) == EXIT_TASK_FAILURE
        spans = _summaries(_run_trace(out))
        assert spans[0]["task"] == "boomx"
        assert spans[0]["status"] == "failed"
        assert spans[0]["cache_hit"] is False

    def test_failures_are_not_cached(self, synthetic, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["boomx", "--cache-dir", cache]) == EXIT_TASK_FAILURE
        capsys.readouterr()
        assert main(["boomx", "--cache-dir", cache]) == EXIT_TASK_FAILURE
        assert "cached" not in capsys.readouterr().out


class TestRegistry:
    def test_registry_covers_back_compat_mapping(self):
        from repro.experiments import EXPERIMENTS

        assert set(EXPERIMENTS) == set(REGISTRY)
        for exp_id, fn in EXPERIMENTS.items():
            assert REGISTRY[exp_id].run is fn

    def test_registry_validates(self):
        validate_registry()

    def test_validate_rejects_unknown_quick_kwarg(self):
        def seeded_stub(*, seed=0):
            return None

        bad = {
            "bad": ExperimentSpec(
                id="bad", run=seeded_stub, seeded=True, quick_kwargs={"nope": 1}
            )
        }
        with pytest.raises(ValueError):
            validate_registry(bad)

    def test_validate_rejects_seeded_without_seed(self):
        bad = {
            "bad": ExperimentSpec(
                id="bad", run=lambda: None, seeded=True, quick_kwargs={}
            )
        }
        with pytest.raises(ValueError):
            validate_registry(bad)

    def test_every_spec_declares_quick_story(self):
        # Heavy experiments must shrink in quick mode; the exempt list is
        # the cheap ones whose full run is already fast.
        exempt = {"figure1", "figure2", "figure3", "param"}
        for exp_id, spec in REGISTRY.items():
            if exp_id not in exempt:
                assert spec.quick_kwargs, f"{exp_id} has no quick-mode overrides"
