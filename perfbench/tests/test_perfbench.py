"""The benchmark's own checks, at tiny scale.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import gen, run  # noqa: E402
from perfbench.trace import Recorder  # noqa: E402

TINY = {
    "ingest": {"rows_per_load": 300},
    "udf_analytics": {"cardinality": 500, "setups": 1},
    "oltp_server": {"rows": 200, "statements": 300, "setups": 1},
}
WORKLOADS = tuple(TINY)


def tiny_run(workload: str, seed: int = 1, trace: bool = False) -> dict:
    return run.run_workload(workload, seed, 0.2, trace, **TINY[workload])


@pytest.fixture(scope="module")
def manifest():
    return run.load_manifest()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, manifest, capsys):
    result = tiny_run(workload, trace=True)
    traced = run.report(workload, result, manifest, trace=True)
    untraced = run.report(workload, result, manifest, trace=False)
    printed = capsys.readouterr().out
    for final, metrics in ((untraced, manifest["end_to_end"]),
                           (traced, manifest["per_layer"])):
        assert final["failed"] == 0 and final["correct"]
        assert set(final["metrics"]) == {m["name"] for m in metrics}
        for metric in metrics:
            emitted = final["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], float)
    for metric in manifest["end_to_end"]:
        assert metric["per_workload"][workload] in printed
        assert result["end_to_end"][metric["name"]] > 0
    for metric in manifest["detail"]:
        if metric["workload"] == workload:
            assert metric["name"] in printed
    assert "failed_ratio" in printed
    assert 0 < result["layers"]["trace.coverage"] <= 1
    json.dumps(traced)


@pytest.mark.parametrize("workload", ["udf_analytics", "ingest"])
def test_injected_wrong_answer_raises_failed_ratio(workload, monkeypatch):
    if workload == "udf_analytics":
        import repro.core.generic_udf as generic_udf

        real = generic_udf.generic_native

        def off_by_one(ctx, data, num_indep, num_dep, num_callbacks):
            return real(ctx, data, num_indep, num_dep, num_callbacks) + 1

        monkeypatch.setattr(generic_udf, "generic_native", off_by_one)
    else:
        from repro.database import Database

        real = Database.insert_rows
        monkeypatch.setattr(
            Database, "insert_rows",
            lambda self, table, rows: real(self, table, list(rows)[:-1]) + 1,
        )
    result = tiny_run(workload)
    assert result["attempted"] > 0
    assert result["failed"] > 0


def test_seeds_change_inputs_not_metric_set(manifest):
    assert gen.ingest_rows(1, 50) != gen.ingest_rows(2, 50)
    model = gen.RelModel(500, {size: [7] * 500 for size in (1, 100, 10000)})
    designs = ["native_integrated", "sandbox_jit"]
    menus = [gen.udf_menu(seed, 2, model, designs) for seed in (1, 2)]
    assert ([q.sql for p in menus[0] for q in p]
            != [q.sql for p in menus[1] for q in p])
    assert ({q.shape for q in menus[0][0]} == {q.shape for q in menus[1][0]})
    scripts = [gen.oltp_scripts(seed, 2, 100, 50) for seed in (1, 2)]
    assert ([s.sql for s in scripts[0][0].statements]
            != [s.sql for s in scripts[1][0].statements])
    assert gen.ingest_rows(3, 50) == gen.ingest_rows(3, 50)
    reports = [run.report("ingest", tiny_run("ingest", seed), manifest, False)
               for seed in (1, 2)]
    assert set(reports[0]["metrics"]) == set(reports[1]["metrics"])


def test_benchmark_json_matches_manifest(manifest):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert bench["workloads"] == manifest["workloads"]
    assert [m["name"] for m in manifest["workloads"]] == list(WORKLOADS)
    keys = ("name", "unit", "better", "bound")
    assert bench["end_to_end"] == [
        {key: m[key] for key in keys} for m in manifest["end_to_end"]
    ]
    assert bench["per_layer"] == [
        {key: m[key] for key in keys[:3]} for m in manifest["per_layer"]
    ]
    names = {m["name"] for m in manifest["end_to_end"]}
    aliases = {alias for m in manifest["end_to_end"]
               for alias in m["per_workload"].values()}
    details = {m["name"] for m in manifest["detail"]}
    for metric in manifest["per_layer"]:
        for move in metric["moves"]:
            assert move["workload"] in WORKLOADS
            assert move["metric"] in names | aliases | details


def test_self_time_excludes_children_and_outermost_accumulators():
    recorder = Recorder()
    outer = recorder.open("outer")
    inner = recorder.open("inner")
    time.sleep(0.002)
    recorder.close(inner)
    recorder.add("acc", 1_000_000, 3)
    state = recorder._state()
    state.acc_depth = 1  # an accumulator nested in another: not subtracted
    recorder.add("nested", 5_000_000)
    state.acc_depth = 0
    span = recorder.close(outer)
    inner_span = recorder.spans[0]
    duration = span[6] - span[5]
    assert span[7] == duration - (inner_span[6] - inner_span[5]) - 1_000_000
    assert span[8] == {"acc": 3, "nested": 1}
    assert inner_span[2] == span[2] and inner_span[1] == span[0]
    assert recorder.accumulated("setup") == {
        "acc": [3, 1_000_000], "nested": [1, 5_000_000]}
