"""Workload ``reproduce``: the full paper reproduction through the runner CLI.

One cycle is a cold reproduction (all 13 experiments, not ``--quick``,
serial, ``--no-cache`` into a fresh cache dir) followed by warm re-runs
of the same command against the cache the cold run filled.  A run makes
a fixed number of cycles, each at its own seed derived from ``--seed``
(the first at ``--seed`` itself), so the cold reproductions always
cover the same inputs however fast the program is.  The last cycle
fills what is left of the run with more warm re-runs: a warm re-run is
almost all interpreter start-up, which is noisy, so it needs many
samples.  Medians are reported.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Dict, List

from common import BenchError, Program, WorkDir, median, program_argv, quantile
from layers import load_spans, read_jsonl, stats_table, trace_self_times

RUNNER = "repro.experiments"
COLD_CYCLES = 3
WARM_RUNS = 2
CYCLE_SEED_STRIDE = 100_000
_CLAIMS = re.compile(r"\*\*(\d+)/(\d+) claims hold\.\*\*")


def _reproduce(work: WorkDir, seed: int, *, cold: bool, traced: bool, tag: str) -> Dict[str, Any]:
    """One runner invocation; raises BenchError on a wrong output."""
    args = [
        "--seed", str(seed),
        "--cache-dir", work.sub("cache"),
        "--out", work.sub("out"),
        "--report", work.sub(f"score-{tag}.md"),
    ]
    if cold:
        args.append("--no-cache")
    spans = None
    if traced:
        spans = work.sub(f"spans-{tag}")
        os.makedirs(spans)
    prog = Program(
        program_argv(RUNNER, args, traced=traced), spans_dir=spans, log_path=work.sub(f"{tag}.log")
    )
    code = prog.wait(170)
    if code not in (0, 2):  # 1 = an experiment failed; 2 = claim misses only
        raise BenchError(f"runner ({tag}) exited {code}:\n{prog.output()[-2000:]}")
    run_dir = os.path.realpath(work.sub("out", "latest"))
    journal = read_jsonl(os.path.join(run_dir, "journal.jsonl"))
    ids = next((r["ids"] for r in journal if r.get("type") == "meta"), None)
    if not ids:
        raise BenchError(f"runner ({tag}) journal names no experiments")
    status = {r["task"]: r["status"] for r in journal if r.get("type") == "task"}
    reports = {}
    for exp_id in ids:
        path = os.path.join(run_dir, f"{exp_id}.txt")
        if status.get(exp_id) != "ok" or not os.path.isfile(path):
            raise BenchError(f"runner ({tag}): experiment {exp_id} produced no payload")
        with open(path, "rb") as fh:
            reports[exp_id] = fh.read()
    trace = read_jsonl(os.path.join(run_dir, "trace.jsonl"))
    run_span = next((r for r in trace if r.get("type") == "span" and r.get("name") == "run"), None)
    if run_span is None:
        raise BenchError(f"runner ({tag}) trace has no run span")
    with open(work.sub(f"score-{tag}.md"), "r", encoding="utf-8") as fh:
        claims = _CLAIMS.search(fh.read())
    if claims is None:
        raise BenchError(f"runner ({tag}) scorecard has no claim total")
    return {
        "wall_s": prog.wall_s,
        "setup_s": prog.wall_s - run_span["wall_s"],
        "rss_mb": prog.maxrss_kb / 1024.0,
        "ids": ids,
        "reports": reports,
        "trace": trace,
        "metrics": _load_json(os.path.join(run_dir, "metrics.json")),
        "claims_held": int(claims.group(1)),
        "claims_total": int(claims.group(2)),
        "spans": spans,
    }


def _load_json(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _warm(work: WorkDir, seed: int, cold: Dict[str, Any], *, traced: bool, tag: str) -> Dict[str, Any]:
    """A warm re-run: every experiment from the cache, reports unchanged."""
    warm = _reproduce(work, seed, cold=False, traced=traced, tag=tag)
    if warm["reports"] != cold["reports"]:
        raise BenchError("warm re-run served reports that differ from the cold run's")
    hits = warm["metrics"]["counters"].get("cache_hits_total", 0)
    if hits != len(cold["ids"]):
        raise BenchError(f"warm re-run hit the cache {hits} of {len(cold['ids'])} times")
    return warm


def run(seed: int, seconds: float, traced: bool, clock) -> Dict[str, Any]:
    if traced:
        with WorkDir("reproduce-") as work:
            cold = _reproduce(work, seed, cold=True, traced=False, tag="cold")
            traced_cold = _reproduce(work, seed, cold=True, traced=True, tag="traced-cold")
            warm = _warm(work, seed, cold, traced=True, tag="warm")
            result = _result([cold], [warm], invocations=3)
            result["layers"] = _layers(cold, traced_cold, warm)
            return result
    colds: List[Dict[str, Any]] = []
    warms: List[Dict[str, Any]] = []
    for cycle in range(COLD_CYCLES):
        # How much MDS work a reproduction does depends on its seed, so
        # each cycle reproduces at its own seed derived from the run's.
        cycle_seed = seed + CYCLE_SEED_STRIDE * cycle
        with WorkDir("reproduce-") as work:
            cold = _reproduce(work, cycle_seed, cold=True, traced=False, tag="cold")
            colds.append(cold)
            warms += [_warm(work, cycle_seed, cold, traced=False, tag=f"warm{i}")
                      for i in range(WARM_RUNS)]
            if cycle == COLD_CYCLES - 1:
                while clock() + median([w["wall_s"] for w in warms]) <= seconds:
                    warms.append(_warm(work, cycle_seed, cold, traced=False,
                                       tag=f"warm{len(warms)}"))
    return _result(colds, warms, invocations=len(colds) + len(warms))


def _result(colds: List[Dict[str, Any]], warms: List[Dict[str, Any]], invocations: int) -> Dict[str, Any]:
    first = colds[0]
    metrics = {
        "setup_s": (median([r["setup_s"] for r in colds + warms]), "s"),
        "miss_p50_ms": (1000.0 * median([r["wall_s"] for r in colds]), "ms"),
        "hit_p50_ms": (1000.0 * median([r["wall_s"] for r in warms]), "ms"),
        "peak_rss_mb": (median([r["rss_mb"] for r in colds]), "MB"),
    }
    named = {
        "reproduce_wall_s": (median([r["wall_s"] for r in colds]), "s", len(colds)),
        "reproduce_warm_wall_s": (median([r["wall_s"] for r in warms]), "s", len(warms)),
        "reproduce_claims_held": (first["claims_held"], f"of {first['claims_total']} at --seed", 1),
        "setup_s": (metrics["setup_s"][0], "s", len(colds + warms)),
        "peak_rss_mb": (metrics["peak_rss_mb"][0], "MB", len(colds)),
    }
    return {
        "attempted": invocations,
        "failed": 0,
        "metrics": metrics,
        "named": named,
        "health": {"cycles": len(colds), "experiments": len(first["ids"])},
        "samples": [[kind, round(r["wall_s"], 4), round(r["setup_s"], 4)]
                    for kind, runs in (("cold", colds), ("warm", warms)) for r in runs],
    }


def _layers(cold: Dict[str, Any], traced_cold: Dict[str, Any], warm: Dict[str, Any]) -> Dict[str, Any]:
    """Per-layer figures of one traced cycle: cold, traced cold, traced warm.

    Wrapper spans come from the traced runs; the program's own trace
    and metrics come from the untraced cold run, so they are not skewed
    by the wrappers.
    """
    spans = load_spans(traced_cold["spans"])
    warm_spans = load_spans(warm["spans"])
    program = trace_self_times(cold["trace"])
    values: Dict[str, float] = {}
    for rec in cold["trace"]:
        name = str(rec.get("name", ""))
        if rec.get("type") == "span" and name.startswith("task:"):
            values[f"experiments.{name[5:]}_s"] = rec["wall_s"]
    compute = program.get("cache.compute")
    values["runtime.cache.compute_ms"] = 1000.0 * quantile(compute.durations if compute else [], 0.5)
    publish = spans.get("runtime.cache.publish")
    values["runtime.cache.publish_ms"] = 1000.0 * quantile(publish.durations if publish else [], 0.5)
    lookup = warm_spans.get("runtime.cache.lookup")
    values["runtime.cache.lookup_ms"] = 1000.0 * quantile(lookup.durations if lookup else [], 0.5)
    values["runtime.tasks_failed"] = cold["metrics"]["counters"].get("task_failures_total", 0)
    values["obs.trace_records_per_job"] = len(cold["trace"]) / len(cold["ids"])
    values["obs.tracing_overhead_s"] = traced_cold["wall_s"] - cold["wall_s"]
    return {
        "values": values,
        "spans": spans,
        "wrapper_self": stats_table(spans),
        "program_self": stats_table(program),
    }
