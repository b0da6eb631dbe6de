"""Traced-run recorder: spans and accumulators around each layer's calls.

Nothing under ``src/`` knows about this module.  :func:`install` swaps
wrappers onto the public calls of each layer (and onto the names other
modules bound at import, such as ``repro.sql.operators.deserialize_record``)
and :meth:`Tracer.uninstall` puts the originals back.

* A **span** keeps name, start, end, parent, statement id and phase.
  Spans nest per thread; the outermost span on a thread starts a new
  statement.  Self time is a span's duration minus its child spans and
  the accumulators that ran directly inside it.
* An **accumulator** is for calls made once per row or page (record
  decode and encode, slotted-page insert, buffer fetch, disk page I/O):
  it adds a count and a total time, per thread, and charges the same
  count to every open span, so a span knows how many fetches or decodes
  happened under it, without a span per call.

Spans stay in memory and :meth:`Recorder.write_jsonl` writes them once
the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

import repro.database as database_mod
import repro.sql.executor as executor_mod
import repro.sql.operators as operators_mod
import repro.storage.record as record_mod
from repro.core.integrated import NativeIntegratedExecutor
from repro.core.isolated import RemoteExecutor
from repro.core.sandbox import SandboxExecutor
from repro.server.admission import AdmissionController
from repro.storage.btree import BPlusTree
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heapfile import HeapFile
from repro.storage.lob import LOBManager
from repro.storage.mvcc import SnapshotManager, TableImage
from repro.storage.page import SlottedPage
from repro.storage.wal import WriteAheadLog

# Frame slots of an open span (a list, for cheap in-place updates).
_ID, _NAME, _START, _CHILD, _ACC, _COUNTS, _STMT, _PARENT, _EXTRA = range(9)


class _ThreadState:
    __slots__ = ("stack", "acc", "acc_depth")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.acc: Dict[tuple, list] = {}
        self.acc_depth = 0


class Recorder:
    """In-memory spans plus per-thread accumulators, tagged by phase."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.phase = "setup"
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._statements = itertools.count(1)
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> list:
        stack = self._state().stack
        if stack:
            parent = stack[-1]
            statement, parent_id = parent[_STMT], parent[_ID]
        else:
            statement, parent_id = next(self._statements), 0
        frame = [next(self._ids), name, perf_counter_ns(), 0, 0, {},
                 statement, parent_id, None]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> tuple:
        end = perf_counter_ns()
        stack = self._local.state.stack
        stack.pop()
        duration = end - frame[_START]
        if stack:
            parent = stack[-1]
            parent[_CHILD] += duration
            counts = parent[_COUNTS]
            for name, count in frame[_COUNTS].items():
                counts[name] = counts.get(name, 0) + count
        span = (
            frame[_ID], frame[_PARENT], frame[_STMT], self.phase,
            frame[_NAME], frame[_START], end,
            duration - frame[_CHILD] - frame[_ACC],
            frame[_COUNTS], frame[_EXTRA],
        )
        self.spans.append(span)
        return span

    @staticmethod
    def note(frame: list, key: str, value) -> None:
        """Attach one extra figure (rows out, bytes) to an open span."""
        if frame[_EXTRA] is None:
            frame[_EXTRA] = {}
        frame[_EXTRA][key] = frame[_EXTRA].get(key, 0) + value

    # -- accumulators ---------------------------------------------------------

    def add(self, name: str, elapsed_ns: int, count: int = 1) -> None:
        """Charge ``count`` calls taking ``elapsed_ns`` to ``name``.

        Only the outermost accumulator on a thread subtracts its time
        from the enclosing span's self time, so a disk read inside a
        buffer fetch is not subtracted twice.
        """
        state = self._state()
        key = (self.phase, name)
        slot = state.acc.get(key)
        if slot is None:
            state.acc[key] = [count, elapsed_ns]
        else:
            slot[0] += count
            slot[1] += elapsed_ns
        if state.stack:
            top = state.stack[-1]
            if state.acc_depth == 0:
                top[_ACC] += elapsed_ns
            counts = top[_COUNTS]
            counts[name] = counts.get(name, 0) + count

    def accumulated(self, phase: str) -> Dict[str, list]:
        """``name -> [count, ns]`` summed over threads for one phase."""
        with self._lock:
            states = list(self._states)
        total: Dict[str, list] = {}
        for state in states:
            for (acc_phase, name), (count, ns) in list(state.acc.items()):
                if acc_phase != phase:
                    continue
                slot = total.setdefault(name, [0, 0])
                slot[0] += count
                slot[1] += ns
        return total

    # -- output ---------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for (span_id, parent, statement, phase, name, start, end,
                 self_ns, counts, extra) in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "statement": statement,
                    "phase": phase, "name": name, "start_ns": start,
                    "end_ns": end, "self_ns": self_ns, "counts": counts,
                    "extra": extra,
                }) + "\n")
            for name, (count, ns) in sorted(self.accumulated("run").items()):
                out.write(json.dumps({
                    "accumulator": name, "phase": "run",
                    "count": count, "ns": ns,
                }) + "\n")


class Tracer:
    """Installs wrappers into the ``repro`` modules; restores them on exit."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved: List[tuple] = []

    def _swap(self, owner, attr: str, make: Callable) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrapper factories ----------------------------------------------------

    def span(self, owner, attr: str, name: str,
             note: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` in a span; ``note(frame, args, result)``
        may attach extra figures from the arguments or the result."""
        rec = self.recorder

        def make(original):
            def wrapper(*args, **kwargs):
                frame = rec.open(name)
                try:
                    result = original(*args, **kwargs)
                    if note is not None:
                        note(frame, args, result)
                    return result
                finally:
                    rec.close(frame)
            return wrapper

        self._swap(owner, attr, make)

    def accumulate(self, owners, attr: str, name: str) -> None:
        """Wrap one function (bound under ``attr`` in every owner) as an
        accumulator; the same wrapper replaces each binding."""
        rec = self.recorder
        state_of = rec._state
        original = owners[0].__dict__[attr]

        def wrapper(*args, **kwargs):
            state = state_of()
            state.acc_depth += 1
            started = perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - started
                state.acc_depth -= 1
                rec.add(name, elapsed)

        for owner in owners:
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"{owner!r}.{attr} is not the same function")
            self._swap(owner, attr, lambda __: wrapper)


def _rows_out(frame, args, result) -> None:
    query_result = result[0] if isinstance(result, tuple) else result
    Recorder.note(frame, "rows_out", query_result.rowcount)
    Recorder.note(frame, "kind." + type(args[1]).__name__, 1)


def install(recorder: Recorder) -> Tracer:
    """Wrap every layer boundary the per-layer metrics read."""
    rec = recorder
    tracer = Tracer(rec)
    Database = database_mod.Database

    # Statement entry points: the outermost span of each statement.
    for attr in ("execute", "execute_read", "insert_rows"):
        tracer.span(Database, attr, "statement", note=_statement_rows)
    tracer.span(database_mod, "parse_statement", "sql.parser")
    tracer.span(executor_mod, "plan_select", "sql.optimizer")
    tracer.span(executor_mod, "optimize", "sql.optimizer")
    executor_cls = executor_mod.StatementExecutor
    tracer.span(executor_cls, "execute", "sql.executor", note=_rows_out)
    tracer.span(executor_cls, "select_with_plan", "sql.executor",
                note=_rows_out)
    tracer.span(Database, "register_udf", "analysis.create_function")
    tracer.span(RemoteExecutor, "__init__", "core.isolated.setup")
    for cls in (NativeIntegratedExecutor, SandboxExecutor, RemoteExecutor):
        tracer._swap(cls, "invoke_batch", _invoke_batch_wrapper(rec))

    tracer.accumulate(
        [operators_mod, record_mod], "deserialize_record",
        "storage.record.decode",
    )
    tracer.accumulate(
        [database_mod, executor_mod, record_mod], "serialize_record",
        "storage.record.encode",
    )
    tracer.accumulate([SlottedPage], "insert", "storage.page.insert")
    tracer.accumulate([BufferPool], "fetch", "storage.buffer.fetch")
    tracer.accumulate([DiskManager], "read_page", "storage.disk.read")
    tracer.accumulate([DiskManager], "write_page", "storage.disk.write")

    tracer._swap(HeapFile, "__init__", _heap_open_wrapper(rec))
    tracer._swap(HeapFile, "insert", _heap_insert_wrapper(rec))
    tracer.span(BPlusTree, "insert", "storage.btree.insert")
    tracer.span(BPlusTree, "delete", "storage.btree.delete")
    tracer._swap(BPlusTree, "range_scan", _range_scan_wrapper(rec))
    tracer.span(LOBManager, "write", "storage.lob.write",
                note=lambda f, a, r: Recorder.note(f, "bytes", len(a[1])))
    tracer.span(LOBManager, "read", "storage.lob.read",
                note=lambda f, a, r: Recorder.note(f, "bytes", len(r)))
    tracer.span(WriteAheadLog, "log_statement", "storage.wal.append")
    tracer.span(WriteAheadLog, "commit_wait", "storage.wal.commit_wait")
    tracer.span(SnapshotManager, "install", "storage.mvcc.install")
    tracer.span(SnapshotManager, "pin", "storage.mvcc.pin")
    tracer._swap(TableImage, "records", _image_records_wrapper(rec))
    tracer._swap(Database, "_run_write", _run_write_wrapper(rec))
    tracer._swap(AdmissionController, "submit", _submit_wrapper(rec))
    return tracer


def _statement_rows(frame, args, result) -> None:
    rows = result if isinstance(result, int) else result.rowcount
    Recorder.note(frame, "rows_out", rows)


def _invoke_batch_wrapper(rec: Recorder):
    def make(original):
        def invoke_batch(self, args_list):
            frame = rec.open("core." + self.definition.design.value)
            try:
                Recorder.note(frame, "rows", len(args_list))
                return original(self, args_list)
            finally:
                rec.close(frame)
        return invoke_batch
    return make


def _heap_open_wrapper(rec: Recorder):
    """``HeapFile.__init__`` walks the page chain; the walk is charged
    to the insert that uses the opened file (see the insert wrapper)."""
    def make(original):
        def __init__(self, pool, first_page):
            frame = rec.open("storage.heapfile.open")
            try:
                original(self, pool, first_page)
            finally:
                span = rec.close(frame)
            self._perfbench_open = (
                span[6] - span[5], span[8].get("storage.buffer.fetch", 0)
            )
        return __init__
    return make


def _heap_insert_wrapper(rec: Recorder):
    def make(original):
        def insert(self, record):
            frame = rec.open("storage.heapfile.insert")
            try:
                opened = self.__dict__.pop("_perfbench_open", None)
                if opened is not None:
                    Recorder.note(frame, "open_ns", opened[0])
                    Recorder.note(frame, "open_fetches", opened[1])
                return original(self, record)
            finally:
                rec.close(frame)
        return insert
    return make


def _range_scan_wrapper(rec: Recorder):
    """A generator: each step is its own span, so nesting stays LIFO."""
    def make(original):
        def range_scan(self, *args, **kwargs):
            steps = original(self, *args, **kwargs)
            rec.add("storage.btree.range_scans", 0)
            while True:
                frame = rec.open("storage.btree.range_scan")
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    rec.close(frame)
                yield item
        return range_scan
    return make


def _image_records_wrapper(rec: Recorder):
    def make(original):
        def records(self):
            count = 0
            try:
                for record in original(self):
                    count += 1
                    yield record
            finally:
                rec.add("storage.mvcc.image_rows", 0, count)
        return records
    return make


def _run_write_wrapper(rec: Recorder):
    """Span over the write pipeline; notes the wait for its locks."""
    def make(original):
        def _run_write(self, locks, body, install):
            frame = rec.open("database.write")
            entered = perf_counter_ns()

            def timed_body():
                if "lock_wait_ns" not in (frame[_EXTRA] or {}):
                    Recorder.note(
                        frame, "lock_wait_ns", perf_counter_ns() - entered
                    )
                return body()

            try:
                return original(self, locks, timed_body, install)
            finally:
                rec.close(frame)
        return _run_write
    return make


def _submit_wrapper(rec: Recorder):
    """Admission queue wait: from ``submit`` until the thunk starts."""
    def make(original):
        def submit(self, tenant, thunk):
            submitted = perf_counter_ns()

            def timed_thunk():
                rec.add("server.queue_wait", perf_counter_ns() - submitted)
                return thunk()

            return original(self, tenant, timed_thunk)
        return submit
    return make
