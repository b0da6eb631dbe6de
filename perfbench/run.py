"""The repository's benchmark: one seeded workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Workloads: ``ingest``, ``udf_analytics``, ``oltp_server`` (see
``perfbench/metrics.json`` for why each exists and what every metric
means).  With ``--trace 0`` the run measures the end-to-end metrics with
no wrappers installed; with ``--trace 1`` it measures the untraced loop
first, then the same loop with the per-layer wrappers of
:mod:`perfbench.trace`, and reports the per-layer metrics (spans are
written to ``.perfbench_work/trace-<workload>*.jsonl``).

Every answer is checked against the generator's model.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  Lines before it
give host and configuration facts and every metric by name, for people.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "metrics.json")


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 **scale) -> dict:
    """Run one workload in this process; returns its raw result dict."""
    from perfbench import harness, ingest, oltp_server, udf_analytics

    modules = {
        "ingest": ingest,
        "udf_analytics": udf_analytics,
        "oltp_server": oltp_server,
    }
    if name not in modules:
        raise SystemExit(f"unknown workload {name!r}; one of {sorted(modules)}")
    os.makedirs(os.path.join(ROOT, harness.WORK_DIR), exist_ok=True)
    trace_path = os.path.join(ROOT, harness.WORK_DIR, f"trace-{name}.jsonl")
    if name == "oltp_server":
        scale.setdefault("trace_file", trace_path[:-6] + "-server.jsonl")
    before = harness.calibrate()
    result = modules[name].run(ROOT, seed, seconds, trace, **scale)
    after = harness.calibrate()
    recorder = result.pop("recorder", None)
    if recorder is not None:
        recorder.write_jsonl(trace_path)
    result["host"] = dict(
        harness.host_facts(ROOT),
        calibration_s={"before": before, "after": after},
    )
    return result


def report(name: str, result: dict, manifest: dict, trace: bool) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    print(f"perfbench workload={name}")
    print("host " + json.dumps(result["host"], sort_keys=True))
    print("config " + json.dumps(result["config"], sort_keys=True))
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_ratio':40s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted})")
    shown = set()
    for metric in manifest["end_to_end"]:
        alias = metric["per_workload"][name]
        shown.add(alias)
        value = result["end_to_end"][metric["name"]]
        print(f"  {alias:40s} {value:.6g} {metric['unit']}"
              f"   [{metric['name']}]")
    for metric in manifest["detail"]:
        if (metric["workload"] == name and metric["name"] not in shown
                and metric["name"] in result["detail"]):
            print(f"  {metric['name']:40s} "
                  f"{result['detail'][metric['name']]:.6g} {metric['unit']}")
    if trace:
        metrics = {}
        for metric in manifest["per_layer"]:
            value = result["layers"].get(metric["name"])
            text = "n/a" if value is None else f"{value:.6g}"
            print(f"  {metric['name']:40s} {text} {metric['unit']}")
            metrics[metric["name"]] = {
                "value": 0.0 if value is None else value,
                "unit": metric["unit"],
            }
        for key, value in sorted(result.get("sanity", {}).items()):
            print(f"sanity {key} " + json.dumps(value))
    else:
        metrics = {
            metric["name"]: {
                "value": result["end_to_end"][metric["name"]],
                "unit": metric["unit"],
            }
            for metric in manifest["end_to_end"]
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    for path in (ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    manifest = load_manifest()
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(report(args.workload, result, manifest,
                            bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
