"""``ingest``: repeated bulk loads through ``Database.insert_rows``.

Each load builds a fresh path-backed database (WAL on, group commit
window 0.0, the shipped flush policy) with one indexed table, then
inserts a seeded row set in fixed-size calls.  The buffer pool is set
well below the default so the table outgrows it several times within
one load: the tail of every load runs past the pool, which is the
storage cliff the load-tail rate tracks.  After each load the database
is closed cleanly, reopened, and checked for its row count and a seeded
sample of rows.
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List, Optional

from repro.database import Database
from repro.storage.heapfile import HeapFile
from repro.storage.lob import LOBRef

from . import gen, harness
from .layers import counters, layer_metrics
from .trace import Recorder, install

ROWS_PER_LOAD = 1600
ROWS_PER_CALL = 100
BUFFER_FRAMES = 16
PAGE_SIZE = 8192
SAMPLED_ROWS = 16
#: Set-ups timed before the loads, on top of each load's own: one takes
#: milliseconds, so its median needs many samples.
SETUP_SAMPLES = 15


def _open(path: str) -> Database:
    return Database(path, page_size=PAGE_SIZE, buffer_capacity=BUFFER_FRAMES,
                    group_commit_window=0.0)


def _verify(path: str, rows: List[tuple], seed: int) -> tuple:
    """(checks attempted, checks failed, heap pages) after a reopen."""
    attempted = failed = 0
    db = _open(path)
    try:
        attempted += 1
        if db.query("SELECT COUNT(*) FROM t") != [(len(rows),)]:
            failed += 1
        for row in random.Random(seed).sample(rows, SAMPLED_ROWS):
            attempted += 1
            got = db.query(
                f"SELECT id, k, v, name, payload FROM t WHERE id = {row[0]}"
            )
            if len(got) == 1 and isinstance(got[0][4], LOBRef):
                got = [got[0][:4] + (db.read_lob(got[0][4]),)]
            if got != [row]:
                failed += 1
        table = db.catalog.get_table("t")
        heap_pages = sum(1 for __ in HeapFile(db.pool, table.first_page).pages())
    finally:
        db.close()
    return attempted, failed, heap_pages


def _set_up(path: str):
    """A fresh database with the empty indexed table, and the seconds
    that took."""
    started = time.perf_counter()
    db = _open(path)
    db.execute(gen.INGEST_SCHEMA)
    db.execute(gen.INGEST_INDEX)
    return db, time.perf_counter() - started


class _Load:
    """Figures from one load."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.call_ms: List[float] = []
        self.load_s = 0.0
        self.tail_rows_per_s = 0.0
        self.space_amp = 0.0
        self.wal_amp = 0.0
        self.heap_pages = 0
        self.attempted = 0
        self.failed = 0


def _one_load(root: str, seed: int, rows: List[tuple],
              recorder: Optional[Recorder],
              deltas: Dict[str, float]) -> _Load:
    load = _Load()
    path = harness.work_dir(root, "ingest")
    if recorder is not None:
        recorder.phase = "setup"
    db, load.setup_s = _set_up(path)

    if recorder is not None:
        recorder.phase = "run"
    before = counters(db)
    calls = [rows[i:i + ROWS_PER_CALL]
             for i in range(0, len(rows), ROWS_PER_CALL)]
    try:
        for chunk in calls:
            load.attempted += 1
            call_started = time.perf_counter()
            inserted = db.insert_rows("t", chunk)
            load.call_ms.append((time.perf_counter() - call_started) * 1e3)
            if inserted != len(chunk):
                load.failed += 1
    except Exception:  # a failed load counts and ends; the run goes on
        load.failed += 1
    after = counters(db)
    for key, value in after.items():
        deltas[key] = deltas.get(key, 0) + value - before[key]
    if recorder is not None:
        recorder.phase = "verify"
    db.close()

    load.load_s = sum(load.call_ms) / 1e3
    tail_calls = max(1, len(load.call_ms) // 4)
    tail_rows = sum(len(chunk) for chunk in calls[-tail_calls:])
    load.tail_rows_per_s = tail_rows / (sum(load.call_ms[-tail_calls:]) / 1e3)
    user = gen.user_bytes(rows)
    load.space_amp = os.path.getsize(os.path.join(path, "data.pages")) / user
    load.wal_amp = (after["wal.bytes"] - before["wal.bytes"]) / user
    attempted, failed, load.heap_pages = _verify(path, rows, seed)
    load.attempted += attempted
    load.failed += failed
    return load


def _loads(root, seed, seconds, recorder, deltas, first_index, rows_per_load):
    loads: List[_Load] = []
    deadline = time.perf_counter() + seconds
    index = first_index
    while not loads or time.perf_counter() < deadline:
        load_seed = seed * 7919 + index
        rows = gen.ingest_rows(load_seed, rows_per_load)
        harness.settle_inputs()
        loads.append(_one_load(root, load_seed, rows, recorder, deltas))
        index += 1
    return loads


def run(root: str, seed: int, seconds: float, trace: bool,
        rows_per_load: int = ROWS_PER_LOAD) -> dict:
    setups = []
    for __ in range(SETUP_SAMPLES):
        db, seconds_ = _set_up(harness.work_dir(root, "ingest"))
        db.close()
        setups.append(seconds_)
    deltas: Dict[str, float] = {}
    loads = _loads(root, seed, seconds, None, deltas, 0, rows_per_load)
    setups += [load.setup_s for load in loads]
    result = {
        "attempted": sum(load.attempted for load in loads),
        "failed": sum(load.failed for load in loads),
        "config": {
            "rows_per_load": rows_per_load,
            "rows_per_call": ROWS_PER_CALL,
            "loads": len(loads),
            "buffer_pool_bytes": BUFFER_FRAMES * PAGE_SIZE,
            "default_buffer_pool_bytes": 512 * PAGE_SIZE,
            "heap_bytes": harness.median(
                [load.heap_pages * PAGE_SIZE for load in loads]),
            "flush_policy": "wal=on group_commit_window=0.0",
        },
    }
    figures = _figures(loads, rows_per_load)
    result["config"]["latency_samples"] = figures.pop("samples")
    result["end_to_end"] = dict(
        figures,
        setup_s=harness.median(setups),
        peak_rss_mb=harness.peak_rss_mb(),
    )
    result["detail"] = {
        "load_rows_per_s": figures["ops_per_s"],
        "load_tail_rows_per_s": figures["tail_ops_per_s"],
        "space_amp": harness.median([load.space_amp for load in loads]),
        "wal_amp": harness.median([load.wal_amp for load in loads]),
    }
    if not trace:
        return result

    recorder = Recorder()
    traced_deltas: Dict[str, float] = {}
    tracer = install(recorder)
    try:
        traced = _loads(root, seed, seconds, recorder, traced_deltas,
                        len(loads), rows_per_load)
    finally:
        tracer.uninstall()
    layers = layer_metrics(recorder, {}, traced_deltas)
    layers["trace.overhead"] = (
        figures["ops_per_s"] / _figures(traced, rows_per_load)["ops_per_s"]
        - 1.0
    )
    result["layers"] = layers
    result["recorder"] = recorder
    result["sanity"] = {
        "fetches_per_insert_by_quarter": _fetches_by_quarter(recorder),
    }
    result["attempted"] += sum(load.attempted for load in traced)
    result["failed"] += sum(load.failed for load in traced)
    return result


def _figures(loads: List[_Load], rows_per_load: int) -> dict:
    """Per-load figures, median over loads; the tail rate is each load's
    last quarter of rows, past the buffer pool."""
    figures = harness.windowed(
        [(load.load_s, rows_per_load, load.call_ms) for load in loads])
    figures["tail_ops_per_s"] = harness.median(
        [load.tail_rows_per_s for load in loads])
    return figures


def _fetches_by_quarter(recorder: Recorder) -> List[float]:
    """Mean buffer fetches per heap insert in each quarter of the loads."""
    per_load: List[List[float]] = []
    current: List[float] = []
    for span in recorder.spans:
        if span[3] == "setup" and current:
            per_load.append(current)
            current = []
        if span[4] == "storage.heapfile.insert" and span[3] == "run":
            extra = span[9] or {}
            current.append(span[8].get("storage.buffer.fetch", 0)
                           + extra.get("open_fetches", 0))
    if current:
        per_load.append(current)
    quarters = [[] for __ in range(4)]
    for inserts in per_load:
        for position, fetches in enumerate(inserts):
            quarters[position * 4 // len(inserts)].append(fetches)
    return [sum(q) / len(q) if q else 0.0 for q in quarters]
