"""One write protocol for every database: in-memory and path-backed
databases run the same tracked, commit-granular statements, and the
write-ahead log is the only difference between them."""

import pytest

from repro.database import Database
from repro.errors import BufferPoolError
from repro.storage.buffer import DirtyTracker
from repro.storage.heapfile import HeapFile
from tests.storage.faults import check_free_list

#: LOB churn: spills, LOB-replacing UPDATEs, a LOB-freeing DELETE and a
#: DROP TABLE that frees a heap and its LOBs, then reuse of the pages.
CHURN = [
    "CREATE TABLE docs (id INT, body BYTEARRAY)",
    "CREATE TABLE keep (id INT, body BYTEARRAY)",
    "INSERT INTO docs VALUES (1, zerobytes(20000)), (2, zerobytes(3000)), "
    "(3, zerobytes(40))",
    "INSERT INTO keep VALUES (1, zerobytes(9000))",
    "UPDATE docs SET body = zerobytes(12000) WHERE id = 1",
    "UPDATE docs SET body = zerobytes(30000) WHERE id = 3",
    "DELETE FROM docs WHERE id = 2",
    "INSERT INTO docs VALUES (4, zerobytes(16000))",
    "DROP TABLE docs",
    "INSERT INTO keep VALUES (2, zerobytes(25000))",
    "CREATE TABLE docs (id INT, body BYTEARRAY)",
    "INSERT INTO docs VALUES (5, zerobytes(8000)), (6, zerobytes(2000))",
    "DELETE FROM keep WHERE id = 1",
]


def run_churn(db):
    for sql in CHURN:
        db.execute(sql)
    return {
        "geometry": db.disk.geometry(),
        "free_list": check_free_list(db),
        "keep": db.query("SELECT id, body FROM keep"),
        "docs": db.query("SELECT id, body FROM docs"),
    }


def test_in_memory_and_path_backed_storage_agree(tmp_path):
    with Database() as memory:
        in_memory = run_churn(memory)
    with Database(str(tmp_path / "db")) as backed:
        path_backed = run_churn(backed)
    assert in_memory["free_list"]  # the churn really freed pages
    assert in_memory == path_backed


def test_free_outside_tracked_statement_raises():
    with Database() as db:
        db.execute("CREATE TABLE t (id INT, body BYTEARRAY)")
        db.execute("INSERT INTO t VALUES (1, zerobytes(5000))")
        page = db.catalog.get_table("t").first_page
        geometry = db.disk.geometry()
        with pytest.raises(BufferPoolError, match="outside a tracked"):
            db.pool.free_page(page)
        assert db.disk.geometry() == geometry
        assert db.query("SELECT id FROM t") == [(1,)]


def test_in_memory_statement_is_not_bounded_by_the_pool():
    """Without a log nothing is pending, so an in-memory statement may
    dirty more pages than the pool holds (they are evicted mid-flight).
    With a log the same statement is bounded by the pool (see
    ``test_oversize_statement_fails_with_explicit_error``)."""
    with Database(page_size=512, buffer_capacity=16) as db:
        db.execute("CREATE TABLE t (id INT, name STRING)")
        db.insert_rows("t", ((i, "n" * 100) for i in range(200)))
        first_page = db.catalog.get_table("t").first_page
        assert len(list(HeapFile(db.pool, first_page).pages())) > 16
        evictions = db.pool.evictions
        assert db.execute("UPDATE t SET id = id + 1000").rowcount == 200
        assert db.pool.evictions > evictions
        assert sorted(db.query("SELECT id FROM t")) == [
            (i + 1000,) for i in range(200)
        ]


def test_dirty_tracker_keeps_first_touch_order():
    tracker = DirtyTracker()
    for page_id in (5, 3, 5, 9, 3, 1):
        tracker.note(page_id)
    assert list(tracker.pages) == [5, 3, 9, 1]
