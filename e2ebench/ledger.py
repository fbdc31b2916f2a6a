"""The per-layer ledger: every layer metric, its unit, and what it moves.

Each entry names the end-to-end metric (and workload) a change in the
layer metric should move, written down before anything is measured.
``JSON`` entries are the ``per_layer`` metrics of ``BENCHMARK.json``:
they are printed on every workload, so each is either a count (zero
where the workload never enters the layer) or a time of a layer every
workload runs.  The rest appear in the per-layer record and the printed
report of the workloads that exercise them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

R = "miss_p50_ms (reproduce_wall_s) on reproduce"
RH = "hit_p50_ms (warm re-run) on reproduce"
UP50 = "miss_p50_ms (fresh uploads) on svc_upload"
UPHIT = "hit_p50_ms (re-uploads) on svc_upload"
UPMB = "upload_mb_per_s on svc_upload"
P90 = "upload_p90_ms on svc_upload"
FAIL = "svc_failed_share on svc_upload"
COPLOT = (R, UP50, f"flat: {RH}", f"flat: {UPHIT}")

# name -> (unit, better, in BENCHMARK.json, moves)
LEDGER: Dict[str, Tuple[str, str, bool, Tuple[str, ...]]] = {
    "coplot.fit.calls": ("count", "lower", True, COPLOT),
    "coplot.mds.calls": ("count", "lower", True, COPLOT),
    "coplot.mds.iterations": ("count", "lower", True, COPLOT),
    "coplot.mds.self_s": ("s", "lower", True, COPLOT),
    "coplot.normalize.self_s": ("s", "lower", True, COPLOT),
    "coplot.dissimilarity.self_s": ("s", "lower", True, COPLOT),
    "coplot.arrows.self_s": ("s", "lower", True, COPLOT),
    "coplot.render.self_s": ("s", "lower", True, COPLOT),
    "coplot.selection.self_s": ("s", "lower", False, (R,)),
    "coplot.extend.self_s": ("s", "lower", False, (R,)),
    "archive.synthesize.calls": ("count", "lower", True, (R,)),
    "archive.synthesize.self_s": ("s", "lower", False, (R,)),
    "archive.synthesize.jobs": ("count", "lower", True, (R,)),
    "models.generate.calls": ("count", "lower", True, (R,)),
    "models.generate.self_s": ("s", "lower", False, (R,)),
    "models.generate.jobs": ("count", "lower", True, (R,)),
    "workload.statistics.self_s": ("s", "lower", True, (R, UP50, f"flat: {UPHIT}")),
    "workload.swf.parse_s": ("s", "lower", False, (UP50, UPHIT, UPMB)),
    "selfsim.hurst.calls": ("count", "lower", True, (R,)),
    "selfsim.hurst.self_s": ("s", "lower", False, (R,)),
    "scheduler.simulate.calls": ("count", "lower", True, (R,)),
    "scheduler.simulate.self_s": ("s", "lower", False, (R,)),
    "scheduler.simulate.jobs": ("count", "lower", True, (R,)),
    "runtime.cache.lookup_ms": ("ms", "lower", True, (RH, UPHIT)),
    "runtime.cache.publish_ms": ("ms", "lower", True, (R, UP50)),
    "runtime.cache.compute_ms": ("ms", "lower", True, (R, UP50)),
    "runtime.tasks_failed": ("count", "lower", True, ("correctness on every workload",)),
    "service.upload_submit_ms": ("ms", "lower", False, (UP50, UPHIT)),
    "service.queue_wait_ms": ("ms", "lower", False, (P90,)),
    "service.worker_start_ms": ("ms", "lower", False, (UPHIT, UP50)),
    "service.compute_ms": ("ms", "lower", False, (UP50,)),
    "service.publish_ms": ("ms", "lower", False, (UP50,)),
    "service.result_ms": ("ms", "lower", False, (UP50, UPHIT)),
    "service.journal_records_per_job": ("count", "lower", True, (UPHIT,)),
    "service.cpu_s_per_job": ("s", "lower", False, (UPMB,)),
    "service.cache_hit_ratio": ("ratio", "higher", True, ("equals the planned repeat share",)),
    "service.shed_total": ("count", "lower", True, (FAIL,)),
    "service.retries_total": ("count", "lower", True, (FAIL,)),
    "service.worker_crashes_total": ("count", "lower", True, (FAIL,)),
    "obs.trace_records_per_job": ("count", "lower", True, (RH, UPHIT)),
    "obs.tracing_overhead_s": ("s", "lower", False, ("traced minus untraced reproduce wall",)),
}


def json_names() -> List[str]:
    return [name for name, (_u, _b, in_json, _m) in LEDGER.items() if in_json]


def from_spans(spans: Dict[str, Any]) -> Dict[str, float]:
    """Layer figures the wrapper spans give on any workload."""
    values: Dict[str, float] = {}
    for layer in ("coplot.fit", "coplot.mds", "archive.synthesize", "models.generate",
                  "selfsim.hurst", "scheduler.simulate"):
        values[f"{layer}.calls"] = spans[layer].calls if layer in spans else 0
    for layer in ("coplot.mds", "coplot.normalize", "coplot.dissimilarity", "coplot.arrows",
                  "coplot.render", "coplot.selection", "coplot.extend", "archive.synthesize",
                  "models.generate", "workload.statistics", "selfsim.hurst",
                  "scheduler.simulate"):
        if layer in spans:
            values[f"{layer}.self_s"] = spans[layer].self_s
    values["coplot.mds.iterations"] = spans["coplot.mds"].counts["iterations"] if "coplot.mds" in spans else 0
    for layer in ("archive.synthesize", "models.generate", "scheduler.simulate"):
        values[f"{layer}.jobs"] = spans[layer].counts["jobs"] if layer in spans else 0
    if "workload.swf.parse" in spans:
        values["workload.swf.parse_s"] = spans["workload.swf.parse"].total_s
    return values


def record(workload: str, values: Dict[str, float]) -> List[Dict[str, Any]]:
    """One per-layer record: each measured metric with what it moves."""
    out = []
    for name, (unit, better, in_json, moves) in LEDGER.items():
        if name in values or in_json:
            out.append({
                "name": name,
                "value": values.get(name, 0),
                "unit": unit,
                "better": better,
                "moves": list(moves),
                "measured_on": workload,
            })
    for name in sorted(v for v in values if v.startswith("experiments.")):
        out.append({"name": name, "value": values[name], "unit": "s", "better": "lower",
                    "moves": [R], "measured_on": workload})
    return out
