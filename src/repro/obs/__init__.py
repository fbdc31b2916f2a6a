"""Observability for the experiment engine: traces, metrics, profiles.

The layer every other runtime PR is measured against (docs/OBSERVABILITY.md):

* :mod:`repro.obs.spans` — hierarchical ``trace_id``/``span_id``/
  ``parent_id`` spans with an ambient ``span("mds.solve")`` context
  manager that is a no-op when tracing is off, so library code
  instruments itself for free;
* :mod:`repro.obs.trace` — crash-safe streaming ``trace.jsonl`` writer
  (append+fsync per record, schema v2) and a reader that tolerates torn
  tails;
* :mod:`repro.obs.metrics` — counters/gauges/histograms flushed to
  ``metrics.json`` per run and exportable as Prometheus text;
* :mod:`repro.obs.profile` — per-task cProfile capture (``--profile``);
* :mod:`repro.obs.diff` / :mod:`repro.obs.summary` — run-diff analytics
  and span-tree rendering behind ``python -m repro.obs``;
* :mod:`repro.obs.clock` — the one sanctioned wall-clock/entropy module
  (REP003 per-rule exclude routes here).

Everything here observes; nothing here may influence cache keys or
experiment results.
"""

from repro.obs.diff import RunDiff, TaskDelta, diff_runs
from repro.obs.metrics import METRICS_NAME, MetricsRegistry
from repro.obs.profile import PROFILE_DIR_NAME, maybe_profile
from repro.obs.prune import PrunePlan, RunDirInfo, discover_runs, execute_prune, plan_prune
from repro.obs.spans import (
    ListSink,
    SpanHandle,
    Tracer,
    current_tracer,
    event,
    reset_tracer,
    set_tracer,
    span,
)
from repro.obs.summary import critical_path, digest, render_tree, summarize_trace
from repro.obs.trace import (
    TRACE_NAME,
    TRACE_SCHEMA_VERSION,
    Trace,
    TraceWriter,
    read_trace,
)

__all__ = [
    "METRICS_NAME",
    "PROFILE_DIR_NAME",
    "TRACE_NAME",
    "TRACE_SCHEMA_VERSION",
    "ListSink",
    "MetricsRegistry",
    "PrunePlan",
    "RunDiff",
    "RunDirInfo",
    "SpanHandle",
    "TaskDelta",
    "Trace",
    "TraceWriter",
    "Tracer",
    "critical_path",
    "current_tracer",
    "diff_runs",
    "digest",
    "discover_runs",
    "event",
    "execute_prune",
    "maybe_profile",
    "plan_prune",
    "read_trace",
    "render_tree",
    "reset_tracer",
    "set_tracer",
    "span",
    "summarize_trace",
]
