"""End-to-end benchmark of the Co-plot reproduction and its HTTP service.

Run from the repository root::

    python3 e2ebench/run.py --workload reproduce --seed 0 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that writes the per-layer
record.  Every metric is printed by name with its unit; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A wrong program output prints
``"correct": false`` and exits 1.  The full record (environment,
load-generator health, per-layer ledger) is written to
``.e2ebench/results/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import SRC, WORK_ROOT, BenchError, check_checkout, environment  # noqa: E402

WORKLOADS = ("reproduce", "svc_upload")
E2E = ("setup_s", "miss_p50_ms", "hit_p50_ms", "peak_rss_mb")


def _run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    t0 = time.monotonic()

    def clock() -> float:
        return time.monotonic() - t0

    if workload == "reproduce":
        import reproduce

        return reproduce.run(seed, seconds, traced, clock)
    import service

    return service.run_upload(seed, seconds, traced, clock)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        check_checkout()
    except BenchError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(1, SRC)
    traced = bool(args.trace)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "traced": traced,
        "environment": environment(args.seed),
    }
    try:
        result = _run(args.workload, args.seed, args.seconds, traced)
    except BenchError as exc:
        print(f"e2ebench: INCORRECT: {exc}", file=sys.stderr)
        record["error"] = str(exc)
        _write(record, args)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    print(f"# {args.workload} seed={args.seed} env={json.dumps(record['environment'])}")
    for name, (value, unit, n) in result["named"].items():
        print(f"{name} = {value:.6g} {unit} (n={n})")
    for name, value in result.get("health", {}).items():
        print(f"health.{name} = {value:.6g}" if isinstance(value, float) else f"health.{name} = {value}")
    for error in result.get("errors", []):
        print(f"failed request: {error}")
    record.update(
        attempted=result["attempted"],
        failed=result["failed"],
        named={k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in result["named"].items()},
        health=result.get("health", {}),
        samples=result.get("samples", []),
    )
    if traced:
        import ledger

        values = ledger.from_spans(result["layers"]["spans"])
        values.update(result["layers"]["values"])
        entries = ledger.record(args.workload, values)
        record["per_layer"] = entries
        record["wrapper_self"] = result["layers"]["wrapper_self"]
        record["program_self"] = result["layers"]["program_self"]
        for e in entries:
            print(f"{e['name']} = {e['value']:.6g} {e['unit']}  -> {'; '.join(e['moves'])}")
        wanted = set(ledger.json_names())
        metrics = {e["name"]: {"value": e["value"], "unit": e["unit"]} for e in entries
                   if e["name"] in wanted}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["metrics"].items()}
        for name in E2E:
            print(f"{name} = {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    path = _write(record, args)
    print(f"# record: {os.path.relpath(path)}")
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def _write(record: dict, args) -> str:
    out_dir = os.path.join(WORK_ROOT, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
    return path


if __name__ == "__main__":
    sys.exit(main())
