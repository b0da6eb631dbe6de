"""``udf_analytics``: read-only passes over the paper's Rel* tables.

The tables are built as :class:`repro.bench.workload.BenchmarkWorkload`
builds them (in memory, 16 KiB pages, a pool that holds them all, every
UDF design registered) with the shipped defaults: batch 64, parallelism
1, inlining, tiering and metrics off.  Only the byte arrays are made
beforehand, so ``setup_s`` times table loading and UDF registration,
not ``pattern_bytes``.  Each pass runs the fixed menu of
:func:`perfbench.gen.udf_menu` in a seeded order.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.bench.workload import (
    DEFAULT_SIZES,
    BenchmarkWorkload,
    pattern_bytes,
)
from repro.core.designs import Design
from repro.sql.operators import DEFAULT_BATCH_SIZE

from . import gen, harness
from .layers import counters, layer_metrics
from .trace import Recorder, install

CARDINALITY = 1000
SETUPS = 3
#: Passes generated ahead; a run stops earlier when its time is up.
MAX_PASSES = 64


class PreparedWorkload(BenchmarkWorkload):
    """BenchmarkWorkload whose rows were generated beforehand."""

    def __init__(self, rows_by_size, **kwargs):
        self._prepared = rows_by_size
        #: Seconds spent creating and loading each table, by size.
        self.load_s: Dict[int, float] = {}
        super().__init__(**kwargs)

    def _populate(self) -> None:
        for size in self.sizes:
            started = time.perf_counter()
            name = self.table_name(size)
            self.db.execute(f"CREATE TABLE {name} (id INT, arr BYTEARRAY)")
            self.db.insert_rows(name, self._prepared[size])
            self.load_s[size] = time.perf_counter() - started


def _inputs(cardinality: int):
    rows: Dict[int, List[tuple]] = {}
    sums: Dict[int, List[int]] = {}
    for size in DEFAULT_SIZES:
        arrays = [pattern_bytes(size, row_id) for row_id in range(cardinality)]
        rows[size] = list(enumerate(arrays))
        sums[size] = [sum(array) for array in arrays]
    return rows, gen.RelModel(cardinality, sums)


def _passes(db, menu, start: int, seconds: float):
    """Run whole passes until ``seconds`` of query time have passed."""
    latencies: List[List[float]] = []
    attempted = failed = 0
    spent = 0.0
    index = start
    while index < len(menu) and (not latencies or spent < seconds):
        pass_ms = []
        for query in menu[index]:
            attempted += 1
            started = time.perf_counter()
            try:
                rows = db.execute(query.sql).rows
            except Exception:  # a failed query is counted, not fatal
                rows = None
            elapsed = time.perf_counter() - started
            spent += elapsed
            pass_ms.append(elapsed * 1e3)
            if rows is None or not query.check(rows):
                failed += 1
        latencies.append(pass_ms)
        index += 1
    return latencies, attempted, failed, index


def _figures(latencies: List[List[float]]) -> dict:
    return harness.windowed(
        [(sum(ms) / 1e3, len(ms), ms) for ms in latencies])


def run(root: str, seed: int, seconds: float, trace: bool,
        cardinality: int = CARDINALITY, setups: int = SETUPS) -> dict:
    rows, model = _inputs(cardinality)
    designs = [design.value for design in Design]
    menu = gen.udf_menu(seed, MAX_PASSES, model, designs)
    harness.settle_inputs()

    recorder = tracer = None
    if trace:
        recorder = Recorder()
        tracer = install(recorder)
    setup_times = []
    workload = None
    try:
        for __ in range(setups):
            if workload is not None:
                workload.close()
            started = time.perf_counter()
            workload = PreparedWorkload(rows, cardinality=cardinality)
            setup_times.append(time.perf_counter() - started)
    finally:
        if tracer is not None:
            tracer.uninstall()

    db = workload.db
    try:
        latencies, attempted, failed, position = _passes(
            db, menu, 0, seconds)
        figures = _figures(latencies)
        result = {
            "attempted": attempted,
            "failed": failed,
            "config": {
                "cardinality": cardinality,
                "passes": len(latencies),
                "latency_samples": figures.pop("samples"),
                "queries_per_pass": len(menu[0]),
                "batch_size": DEFAULT_BATCH_SIZE,
                "parallelism": db.parallelism,
                "buffer_pool_bytes": db.pool.capacity * db.disk.page_size,
                "data_bytes": db.disk.num_pages * db.disk.page_size,
                "storage": "in-memory",
            },
            "sanity": {
                "setup_share_by_table": {
                    f"rel{size}": seconds_ / setup_times[-1]
                    for size, seconds_ in workload.load_s.items()
                },
            },
            "end_to_end": dict(
                figures,
                setup_s=harness.median(setup_times),
                peak_rss_mb=harness.peak_rss_mb(),
            ),
            "detail": {
                "query_per_s": figures["ops_per_s"],
                "query_p50_ms": figures["p50_ms"],
                "query_p95_ms": figures["p95_ms"],
            },
        }
        if trace:
            _traced(result, db, menu, position, seconds, recorder,
                    figures["ops_per_s"])
    finally:
        workload.close()
    return result


def _traced(result, db, menu, position, seconds, recorder,
            untraced_rate) -> None:
    """Run the traced passes; add their layers and counts to ``result``."""
    recorder.phase = "run"
    before = counters(db)
    tracer = install(recorder)
    try:
        latencies, attempted, failed, __ = _passes(
            db, menu, position, seconds)
    finally:
        tracer.uninstall()
    after = counters(db)
    layers = layer_metrics(recorder, before, after)
    traced_rate = _figures(latencies)["ops_per_s"]
    layers["trace.overhead"] = untraced_rate / traced_rate - 1.0
    result["layers"] = layers
    result["recorder"] = recorder
    result["attempted"] += attempted
    result["failed"] += failed
