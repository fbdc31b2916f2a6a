"""Per-layer view: wrapper spans around each layer's public functions.

Two halves live here.

*In the program process* (installed by ``boot.py`` before the program's
own ``__main__`` runs), :func:`install` replaces each layer's public
function with a wrapper that times the call.  ``from x import f`` binds
``f`` early, so every ``repro.*`` module attribute that refers to a
wrapped function is rebound to the wrapper.  Spans are kept in memory
per thread and appended to ``<spans dir>/spans-<pid>.jsonl`` whenever a
thread's outermost span closes — service workers leave through
``os._exit`` and never run ``atexit``.  A span's self time is its
duration minus the time its child spans cover.

*In the benchmark process*, :func:`load_spans` aggregates those files
and :func:`trace_self_times` does the same for the program's own
``trace.jsonl`` files, so both views report self time by span name.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

# (span name, module, attribute path, what to count off the call)
TARGETS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("coplot.fit", "repro.coplot.model", "Coplot.fit", None),
    ("coplot.normalize", "repro.coplot.normalize", "normalize_matrix", None),
    ("coplot.dissimilarity", "repro.coplot.dissimilarity", "pairwise_dissimilarity", None),
    ("coplot.mds", "repro.coplot.mds.smacof", "smacof", "iterations"),
    ("coplot.arrows", "repro.coplot.arrows", "fit_arrows", None),
    ("coplot.render", "repro.coplot.render", "coplot_to_svg", None),
    ("coplot.render", "repro.coplot.render", "coplot_to_svg_bytes", None),
    ("coplot.render", "repro.coplot.render", "coplot_to_csv", None),
    ("coplot.render", "repro.coplot.render", "render_ascii_map", None),
    ("coplot.selection", "repro.coplot.selection", "eliminate_variables", None),
    ("coplot.selection", "repro.coplot.selection", "best_subset", None),
    ("coplot.extend", "repro.coplot.extend", "bootstrap_stability", None),
    ("coplot.extend", "repro.coplot.extend", "project_observation", None),
    ("archive.synthesize", "repro.archive.synthesize", "synthesize_workload", "jobs"),
    ("workload.statistics", "repro.workload.statistics", "compute_statistics", None),
    ("workload.swf.parse", "repro.workload.swf", "read_swf", "jobs"),
    ("workload.swf.parse", "repro.workload.swf", "parse_swf_text", "jobs"),
    ("selfsim.hurst", "repro.selfsim.hurst", "hurst_summary", None),
    ("selfsim.hurst", "repro.selfsim.hurst", "estimate_hurst", None),
    ("scheduler.simulate", "repro.scheduler.simulator", "simulate", "jobs_arg"),
    ("runtime.cache.lookup", "repro.runtime.cache", "ResultCache.get", None),
    ("runtime.cache.publish", "repro.runtime.cache", "ResultCache.put", None),
)
#: Every model class's own ``generate`` is wrapped as this span.
MODELS_SPAN = "models.generate"


def _count(kind: Optional[str], args: tuple, result: Any) -> Dict[str, int]:
    if kind == "iterations":
        return {"iterations": int(result.n_iter)}
    if kind == "jobs":
        return {"jobs": len(result)}
    if kind == "jobs_arg":
        return {"jobs": len(args[0])}
    return {}


class Recorder:
    """Collects wrapper spans in one program process."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self._lock = threading.Lock()
        self._buf: List[str] = []
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The child must neither re-emit the parent's buffered spans nor
        # inherit half-open frames from the thread that forked.
        self._lock = threading.Lock()
        self._buf = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, count: Optional[str]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)  # e.g. svg_bytes -> svg: one span
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            counts: Dict[str, int] = {}
            try:
                result = fn(*args, **kwargs)
                counts = _count(count, args, result)
                return result
            finally:
                dur = time.perf_counter() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += dur
                record = {"n": name, "d": dur, "s": dur - frame[2], **counts}
                with self._lock:
                    self._buf.append(json.dumps(record))
                if not stack:
                    self.flush()

        return wrapper

    def flush(self) -> None:
        with self._lock:
            lines, self._buf = self._buf, []
        if lines:
            path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")


def _import_all() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__") or info.name.startswith("repro.lint"):
            continue
        importlib.import_module(info.name)


def _rebind(original: Callable, wrapper: Callable) -> None:
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(out_dir: str) -> Recorder:
    """Wrap every target in this process; returns the recorder."""
    _import_all()
    recorder = Recorder(out_dir)
    for name, mod_name, path, count in TARGETS:
        module = importlib.import_module(mod_name)
        owner: Any = module
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = recorder.wrap(name, original, count)
        setattr(owner, attr, wrapper)
        if not parents:
            _rebind(original, wrapper)
    # Every model class's own generate, including the parametric model,
    # which stands outside the WorkloadModel tree.
    from repro.models.base import WorkloadModel
    from repro.models.parametric import ParametricWorkloadModel

    classes = {ParametricWorkloadModel}
    pending = [WorkloadModel]
    while pending:
        cls = pending.pop()
        classes.add(cls)
        pending.extend(cls.__subclasses__())
    for cls in classes:
        if "generate" in vars(cls):
            cls.generate = recorder.wrap(MODELS_SPAN, vars(cls)["generate"], "jobs")
    return recorder


# -- benchmark side ------------------------------------------------------------


class SpanStats:
    """Aggregate of one span name: calls, total, self time, counts."""

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations: List[float] = []
        self.counts: Dict[str, int] = defaultdict(int)

    def add(self, dur: float, self_s: float, counts: Dict[str, int]) -> None:
        self.calls += 1
        self.total_s += dur
        self.self_s += self_s
        self.durations.append(dur)
        for k, v in counts.items():
            self.counts[k] += v

    def to_json(self) -> Dict[str, Any]:
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            **dict(self.counts),
        }


def load_spans(spans_dir: str) -> Dict[str, SpanStats]:
    """Wrapper spans of every program process that wrote into *spans_dir*."""
    stats: Dict[str, SpanStats] = defaultdict(SpanStats)
    for path in sorted(glob.glob(os.path.join(spans_dir, "spans-*.jsonl"))):
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                counts = {k: v for k, v in rec.items() if k not in ("n", "d", "s")}
                stats[rec["n"]].add(rec["d"], rec["s"], counts)
    return stats


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Records of a JSONL file the program wrote, skipping a torn tail."""
    out = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                try:
                    out.append(json.loads(line))
                except ValueError:
                    continue
    except FileNotFoundError:
        pass
    return out


def span_family(name: str) -> str:
    """Collapse per-instance span names (``job:<id>``) to one family."""
    if name.startswith("job:"):
        return "job:*"
    return name


def trace_self_times(records: Iterable[Dict[str, Any]]) -> Dict[str, SpanStats]:
    """Self time by span name over a program ``trace.jsonl``."""
    spans = [r for r in records if r.get("type") == "span" and r.get("wall_s") is not None]
    child_s: Dict[str, float] = defaultdict(float)
    for rec in spans:
        if rec.get("parent_id"):
            child_s[rec["parent_id"]] += rec["wall_s"]
    stats: Dict[str, SpanStats] = defaultdict(SpanStats)
    for rec in spans:
        wall = rec["wall_s"]
        stats[span_family(str(rec.get("name")))].add(
            wall, wall - child_s.get(rec.get("span_id"), 0.0), {}
        )
    return stats


def stats_table(stats: Dict[str, SpanStats]) -> Dict[str, Dict[str, Any]]:
    return {name: stats[name].to_json() for name in sorted(stats)}
