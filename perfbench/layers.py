"""Per-layer metrics from one traced run.

Inputs are the recorder's ``run``-phase spans and accumulators plus
counter deltas read from the database around the run.  A metric whose
layer did no work in the run is ``None`` (not applicable); the runner
reports it as 0 and lists it as n/a.  Counts are per statement (one
``insert_rows`` call on ``ingest``), times are means per call.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.designs import Design

from .trace import Recorder


def counters(db) -> Dict[str, float]:
    """The cumulative counters the layers already keep."""
    out = {
        "buffer.hits": db.pool.hits,
        "buffer.misses": db.pool.misses,
        "buffer.evictions": db.pool.evictions,
        "plancache.hits": db.plan_cache.hits,
        "plancache.misses": db.plan_cache.misses,
        "mvcc.installs": db.snapshots.installs,
        "mvcc.pages_copied": db.snapshots.pages_copied,
        "mvcc.pins": db.snapshots.snapshots_pinned,
    }
    if db.wal is not None:
        stats = db.wal.stats()
        out["wal.fsyncs"] = stats["fsyncs"]
        out["wal.bytes"] = stats["bytes_appended"]
        out["wal.commits"] = stats["statements_logged"]
    return out


def _ratio(numerator, denominator) -> Optional[float]:
    return numerator / denominator if denominator else None


class _Spans:
    """Run-phase spans grouped by name."""

    def __init__(self, recorder: Recorder, phase: str = "run"):
        self.by_name: Dict[str, list] = {}
        self.names: Dict[int, str] = {}
        for span in recorder.spans:
            self.names[span[0]] = span[4]
        for span in recorder.spans:
            if span[3] == phase:
                self.by_name.setdefault(span[4], []).append(span)

    def get(self, name: str) -> list:
        return self.by_name.get(name, [])

    def calls(self, name: str) -> int:
        return len(self.get(name))

    def total_ns(self, name: str) -> int:
        return sum(span[6] - span[5] for span in self.get(name))

    def mean_ms(self, name: str) -> Optional[float]:
        return _ratio(self.total_ns(name) / 1e6, self.calls(name))

    def count(self, name: str, counter: str) -> int:
        return sum(span[8].get(counter, 0) for span in self.get(name))

    def extra(self, name: str, key: str, spans=None) -> float:
        return sum((span[9] or {}).get(key, 0)
                   for span in (self.get(name) if spans is None else spans))


def _outer_executors(spans: "_Spans") -> list:
    """Executor spans not nested in another executor span (one each per
    statement: ``execute`` calls ``select_with_plan`` for a SELECT)."""
    return [s for s in spans.get("sql.executor")
            if spans.names.get(s[1]) != "sql.executor"]


def rows_examined_by_kind(recorder: Recorder) -> Dict[str, float]:
    """Rows decoded per row returned or affected, by statement class."""
    totals: Dict[str, list] = {}
    for span in _outer_executors(_Spans(recorder)):
        extra = span[9] or {}
        for key in extra:
            if key.startswith("kind."):
                slot = totals.setdefault(key[5:], [0, 0])
                slot[0] += span[8].get("storage.record.decode", 0)
                slot[1] += extra.get("rows_out", 0)
    return {kind: examined / out for kind, (examined, out) in totals.items()
            if out}


def layer_metrics(
    recorder: Recorder, before: Dict[str, float], after: Dict[str, float]
) -> Dict[str, Optional[float]]:
    """Every per-layer metric except ``server.overhead_ms`` and
    ``trace.overhead``, which need the client side and the untraced run;
    ``server.statement_ms`` (the mean server-side statement span) is
    what ``server.overhead_ms`` is computed from."""
    spans = _Spans(recorder)
    acc = recorder.accumulated("run")
    delta = {key: after.get(key, 0) - before.get(key, 0) for key in after}
    statements = spans.get("statement")
    n_statements = len(statements)
    out: Dict[str, Optional[float]] = {}

    def acc_count(name):
        return acc.get(name, [0, 0])[0]

    def acc_us(name):
        count, ns = acc.get(name, [0, 0])
        return _ratio(ns / 1e3, count)

    out["sql.parser.parse_ms"] = spans.mean_ms("sql.parser")
    lookups = delta.get("plancache.hits", 0) + delta.get("plancache.misses", 0)
    out["sql.plancache.hit_ratio"] = _ratio(delta.get("plancache.hits", 0),
                                            lookups)
    out["sql.plancache.lookups"] = (
        _ratio(lookups, n_statements) if lookups else None
    )
    # plan_select and optimize are one planning step between them.
    out["sql.optimizer.plan_ms"] = _ratio(
        spans.total_ns("sql.optimizer") / 1e6, spans.calls("sql.optimizer") / 2
    )

    executors = spans.get("sql.executor")
    outer = _outer_executors(spans)
    out["sql.executor.self_ms"] = _ratio(
        sum(s[7] for s in executors) / 1e6, len(outer)
    )
    examined = sum(s[8].get("storage.record.decode", 0) for s in outer)
    out["sql.executor.rows_examined_per_row_out"] = (
        _ratio(examined, spans.extra("sql.executor", "rows_out", outer))
        if outer else None
    )

    out["storage.record.decode_us_per_row"] = acc_us("storage.record.decode")
    decoded = acc_count("storage.record.decode")
    out["storage.record.decoded_rows"] = (
        _ratio(decoded, n_statements) if decoded else None
    )
    out["storage.record.encode_us_per_row"] = acc_us("storage.record.encode")

    inserts = spans.get("storage.heapfile.insert")
    out["storage.heapfile.insert_us"] = _ratio(
        (spans.total_ns("storage.heapfile.insert")
         + spans.extra("storage.heapfile.insert", "open_ns")) / 1e3,
        len(inserts),
    )
    out["storage.heapfile.fetches_per_insert"] = _ratio(
        spans.count("storage.heapfile.insert", "storage.buffer.fetch")
        + spans.extra("storage.heapfile.insert", "open_fetches"),
        len(inserts),
    )
    out["storage.page.insert_us"] = acc_us("storage.page.insert")

    tree_names = ("storage.btree.insert", "storage.btree.delete",
                  "storage.btree.range_scan")
    tree_ops = (spans.calls("storage.btree.insert")
                + spans.calls("storage.btree.delete")
                + acc_count("storage.btree.range_scans"))
    out["storage.btree.insert_us"] = _ratio(
        spans.total_ns("storage.btree.insert") / 1e3,
        spans.calls("storage.btree.insert"),
    )
    out["storage.btree.fetches_per_op"] = _ratio(
        sum(spans.count(name, "storage.buffer.fetch") for name in tree_names),
        tree_ops,
    )

    fetches = delta["buffer.hits"] + delta["buffer.misses"]
    out["storage.buffer.hit_ratio"] = _ratio(delta["buffer.hits"], fetches)
    out["storage.buffer.evictions"] = (
        _ratio(delta["buffer.evictions"], n_statements) if fetches else None
    )
    out["storage.buffer.fetches"] = (
        _ratio(fetches, n_statements) if fetches else None
    )
    reads = acc_count("storage.disk.read")
    writes = acc_count("storage.disk.write")
    out["storage.disk.page_reads"] = (
        _ratio(reads, n_statements) if reads + writes else None
    )
    out["storage.disk.page_writes"] = (
        _ratio(writes, n_statements) if reads + writes else None
    )

    lob_bytes = (spans.extra("storage.lob.write", "bytes")
                 + spans.extra("storage.lob.read", "bytes"))
    out["storage.lob.write_us"] = _ratio(
        spans.total_ns("storage.lob.write") / 1e3,
        spans.calls("storage.lob.write"),
    )
    out["storage.lob.bytes"] = (
        _ratio(lob_bytes, n_statements) if lob_bytes else None
    )

    commits = delta.get("wal.commits", 0)
    out["storage.wal.append_ms"] = spans.mean_ms("storage.wal.append")
    out["storage.wal.commit_wait_ms"] = spans.mean_ms("storage.wal.commit_wait")
    out["storage.wal.fsyncs_per_commit"] = _ratio(
        delta.get("wal.fsyncs", 0), commits
    )
    out["storage.wal.bytes_per_commit"] = _ratio(delta.get("wal.bytes", 0),
                                                 commits)

    out["storage.mvcc.install_ms"] = spans.mean_ms("storage.mvcc.install")
    out["storage.mvcc.pages_copied_per_write"] = _ratio(
        delta["mvcc.pages_copied"], delta["mvcc.installs"]
    )
    out["storage.mvcc.image_rows_per_read"] = _ratio(
        acc_count("storage.mvcc.image_rows"), delta["mvcc.pins"]
    )

    writes_spans = spans.get("database.write")
    out["database.write_lock_wait_ms"] = _ratio(
        spans.extra("database.write", "lock_wait_ns") / 1e6, len(writes_spans)
    )

    for design in Design:
        name = "core." + design.value
        rows = spans.extra(name, "rows")
        out[name + ".invoke_us_per_row"] = _ratio(
            spans.total_ns(name) / 1e3, rows
        )
        out[name + ".rows"] = _ratio(rows, n_statements) if rows else None
    out["core.isolated.setup_ms"] = spans.mean_ms("core.isolated.setup")

    setup = _Spans(recorder, phase="setup")
    out["analysis.create_function_ms"] = setup.mean_ms(
        "analysis.create_function"
    )

    queue = acc.get("server.queue_wait")
    out["server.queue_wait_ms"] = (
        _ratio(queue[1] / 1e6, queue[0]) if queue else None
    )
    statement_ns = sum(s[6] - s[5] for s in statements)
    out["trace.coverage"] = (
        1.0 - sum(s[7] for s in statements) / statement_ns
        if statement_ns else None
    )
    out["server.statement_ms"] = _ratio(statement_ns / 1e6, n_statements)
    return out
