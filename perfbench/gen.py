"""Seeded input generators and the ground-truth models that check answers.

Every generator is a pure function of its seed (and fixed scale
arguments): the same seed gives byte-identical rows and statement texts.
Generators run before any timed region; the program only ever sees the
rows and SQL texts they return.  Each statement carries the answer the
model predicts, so checking is a comparison, never a second query.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

# -- ingest -------------------------------------------------------------------

INGEST_SCHEMA = (
    "CREATE TABLE t (id INT, k INT, v FLOAT, name TEXT, payload BYTEARRAY)"
)
INGEST_INDEX = "CREATE INDEX t_id ON t (id)"
#: Share of payloads that spill to LOB pages (4-16 KiB); the rest are
#: 64-512 B and stay inline in the record.
LOB_SHARE = 0.02


def ingest_rows(seed: int, count: int) -> List[tuple]:
    """``count`` rows for the ingest table.

    The seed picks the id order, the values and which payload size goes
    to which row; the payload sizes themselves are a fixed, evenly
    spread set, so every seed loads the same number of bytes and LOBs.
    """
    rng = random.Random(seed)
    ids = list(range(count))
    rng.shuffle(ids)
    lobs = max(1, round(count * LOB_SHARE))
    sizes = [64 + (448 * i) // max(1, count - lobs - 1)
             for i in range(count - lobs)]
    sizes += [4096 + (12288 * i) // max(1, lobs - 1) for i in range(lobs)]
    rng.shuffle(sizes)
    rows = []
    for row_id, size in zip(ids, sizes):
        rows.append((
            row_id,
            rng.randrange(1 << 30),
            rng.randrange(1 << 20) / 64.0,
            f"row-{row_id:06d}-{rng.randrange(10 ** 6):06d}",
            rng.randbytes(size),
        ))
    return rows


def user_bytes(rows: Sequence[tuple]) -> int:
    """Bytes of user data: 8 per INT/FLOAT, the UTF-8 text, the payload."""
    return sum(24 + len(name.encode("utf-8")) + len(payload)
               for __, __, __, name, payload in rows)


# -- udf_analytics ----------------------------------------------------------------

#: The paper's generic UDF at one point of each of Figs. 5-8:
#: (label, relation size, rows, indep, dep, callbacks).  Data-dependent
#: points stay on Rel1/Rel100 so one query costs tens of milliseconds.
GENERIC_POINTS = (
    ("fig5_invoke", 10000, 100, 0, 0, 0),
    ("fig6_indep", 100, 100, 300, 0, 0),
    ("fig7_dep", 100, 100, 0, 1, 0),
    ("fig8_callbacks", 100, 100, 0, 0, 10),
)
#: Designs the ``arith`` int UDF runs under (native and sandboxed JIT).
ARITH_DESIGNS = ("native_integrated", "sandbox_jit")
ARITH_ROWS = 500
SCAN_ROWS = 200


@dataclass
class Query:
    """One read statement and the answer the model predicts."""

    shape: str
    sql: str
    expected: list
    ordered: bool = True

    def check(self, rows: Sequence[tuple]) -> bool:
        got = [tuple(row) for row in rows]
        if self.ordered:
            return got == self.expected
        return sorted(got) == sorted(self.expected)


class RelModel:
    """Ground truth for the paper's Rel* tables (``pattern_bytes`` data).

    ``sums[size][row_id]`` is the byte sum the generic UDF's
    data-dependent loop adds per pass.
    """

    def __init__(self, cardinality: int, sums: Dict[int, List[int]]):
        self.cardinality = cardinality
        self.sums = sums

    def generic(self, size, lo, count, indep, dep, callbacks) -> list:
        # cb_noop returns 0, so callbacks add nothing to the result.
        return [
            (indep + dep * self.sums[size][row_id],)
            for row_id in range(lo, lo + count)
        ]


def udf_menu(
    seed: int, passes: int, model: RelModel, designs: Sequence[str]
) -> List[List[Query]]:
    """``passes`` shuffled passes over the fixed statement menu.

    The seed picks each pass's order and each statement's row range or
    constant; the menu's shapes and row counts, and so its cost, are
    the same for every seed.
    """
    rng = random.Random(seed)
    card = model.cardinality
    out = []
    for __ in range(passes):
        menu: List[Query] = []
        for label, size, rows, indep, dep, calls in GENERIC_POINTS:
            for design in designs:
                lo = rng.randrange(card - rows + 1)
                menu.append(Query(
                    f"{label}.{design}",
                    f"SELECT generic_{design}(r.arr, {indep}, {dep}, "
                    f"{calls}) FROM rel{size} r "
                    f"WHERE r.id >= {lo} AND r.id < {lo + rows}",
                    model.generic(size, lo, rows, indep, dep, calls),
                ))
        for design in ARITH_DESIGNS:
            lo = rng.randrange(card - ARITH_ROWS + 1)
            menu.append(Query(
                f"arith_project.{design}",
                f"SELECT arith_{design}(r.id) FROM rel1 r "
                f"WHERE r.id >= {lo} AND r.id < {lo + ARITH_ROWS}",
                [(3 * i + 1,) for i in range(lo, lo + ARITH_ROWS)],
            ))
            bound = 3 * rng.randrange(card) + 1
            menu.append(Query(
                f"arith_predicate.{design}",
                f"SELECT r.id FROM rel1 r WHERE arith_{design}(r.id) < {bound}",
                [(i,) for i in range(card) if 3 * i + 1 < bound],
            ))
        for size in (1, 100, 10000):
            lo = rng.randrange(card - SCAN_ROWS + 1)
            menu.append(Query(
                f"scan.rel{size}",
                f"SELECT r.id FROM rel{size} r "
                f"WHERE r.id >= {lo} AND r.id < {lo + SCAN_ROWS}",
                [(i,) for i in range(lo, lo + SCAN_ROWS)],
            ))
        modulus = 13
        residue = rng.randrange(modulus)
        hits = [i for i in range(card) if i % modulus == residue]
        menu.append(Query(
            "filter.rel100",
            f"SELECT COUNT(*), SUM(r.id) FROM rel100 r "
            f"WHERE r.id % {modulus} = {residue}",
            [(len(hits), float(sum(hits)))],
        ))
        lo = rng.randrange(card - SCAN_ROWS + 1)
        groups: Dict[int, List[int]] = {}
        for i in range(lo, lo + SCAN_ROWS):
            groups.setdefault(i % 8, []).append(i)
        menu.append(Query(
            "group_by.rel1",
            f"SELECT r.id % 8, COUNT(*), SUM(r.id) FROM rel1 r "
            f"WHERE r.id >= {lo} AND r.id < {lo + SCAN_ROWS} "
            f"GROUP BY r.id % 8",
            [(g, len(ids), float(sum(ids))) for g, ids in groups.items()],
            ordered=False,
        ))
        rng.shuffle(menu)
        out.append(menu)
    return out


# -- oltp_server --------------------------------------------------------------------

OLTP_SCHEMA = "CREATE TABLE {table} (id INT, k INT, name TEXT)"
OLTP_INDEX = "CREATE INDEX {table}_id ON {table} (id)"
ZIPF_S = 1.1
#: Statement mix: (kind, share).  Point reads repeat texts through the
#: Zipf-skewed keys, so the plan cache sees hits.
OLTP_MIX = (
    ("point", 0.70), ("range", 0.10),
    ("insert", 0.07), ("update", 0.07), ("delete", 0.06),
)
RANGE_WIDTH = 40


@dataclass
class Statement:
    """One client statement, its predicted answer and its model effect.

    The wire protocol's rowcount is the number of rows shipped, so a
    write's reply carries no affected-row count: a write is checked by
    the reads after it and by the table's final contents.
    """

    kind: str
    sql: str
    expected_rows: list
    effect: Optional[tuple] = None

    @property
    def is_write(self) -> bool:
        return self.kind in ("insert", "update", "delete")

    def check(self, rows: Sequence[tuple]) -> bool:
        if self.is_write:
            return not rows
        return sorted(tuple(row) for row in rows) == sorted(self.expected_rows)


@dataclass
class ClientScript:
    """A client's table, initial rows and statement stream."""

    table: str
    initial: List[tuple]
    statements: List[Statement] = field(default_factory=list)

    def contents_after(self, executed: int) -> List[tuple]:
        """The table's rows once the first ``executed`` statements ran."""
        table = {row[0]: row for row in self.initial}
        for statement in self.statements[:executed]:
            apply_effect(table, statement.effect)
        return sorted(table.values())


def apply_effect(table: Dict[int, tuple], effect: Optional[tuple]) -> None:
    if effect is None:
        return
    op = effect[0]
    if op == "insert":
        row = effect[1]
        table[row[0]] = row
    elif op == "update":
        __, key, delta = effect
        if key in table:
            row_id, k, name = table[key]
            table[key] = (row_id, k + delta, name)
    elif op == "delete":
        table.pop(effect[1], None)


def oltp_scripts(
    seed: int, clients: int, rows: int, statements: int
) -> List[ClientScript]:
    """One script per client: its own table, rows and statement stream."""
    scripts = []
    for client in range(clients):
        rng = random.Random(seed * 1009 + client)
        table_name = f"t{client}"
        initial = [
            (i, rng.randrange(1000), f"c{client}-{i}-{rng.randrange(10**6)}")
            for i in range(rows)
        ]
        script = ClientScript(table_name, initial)
        model = {row[0]: row for row in initial}
        # Zipf over ranks; a seeded permutation makes hot keys random ids.
        hot = list(range(rows))
        rng.shuffle(hot)
        cumulative = []
        total = 0.0
        for rank in range(1, rows + 1):
            total += 1.0 / rank ** ZIPF_S
            cumulative.append(total)
        kinds = [kind for kind, __ in OLTP_MIX]
        weights = [share for __, share in OLTP_MIX]
        next_id = rows
        for __ in range(statements):
            kind = rng.choices(kinds, weights)[0]
            if kind == "point":
                key = hot[bisect.bisect_left(cumulative, rng.random() * total)]
                row = model.get(key)
                script.statements.append(Statement(
                    kind,
                    f"SELECT id, k, name FROM {table_name} WHERE id = {key}",
                    [row] if row is not None else [],
                ))
            elif kind == "range":
                lo = rng.randrange(next_id)
                groups: Dict[int, List[int]] = {}
                for row_id, k, __ in model.values():
                    if lo <= row_id < lo + RANGE_WIDTH:
                        groups.setdefault(k % 4, []).append(row_id)
                script.statements.append(Statement(
                    kind,
                    f"SELECT k % 4, COUNT(*), SUM(id) FROM {table_name} "
                    f"WHERE id >= {lo} AND id < {lo + RANGE_WIDTH} "
                    f"GROUP BY k % 4",
                    [(g, len(ids), float(sum(ids)))
                     for g, ids in groups.items()],
                ))
            elif kind == "insert":
                row = (next_id, rng.randrange(1000),
                       f"c{client}-{next_id}-{rng.randrange(10**6)}")
                next_id += 1
                script.statements.append(Statement(
                    kind,
                    f"INSERT INTO {table_name} VALUES "
                    f"({row[0]}, {row[1]}, '{row[2]}')",
                    [], ("insert", row),
                ))
            elif kind == "update":
                key = hot[bisect.bisect_left(cumulative, rng.random() * total)]
                delta = rng.randrange(1, 100)
                script.statements.append(Statement(
                    kind,
                    f"UPDATE {table_name} SET k = k + {delta} "
                    f"WHERE id = {key}",
                    [], ("update", key, delta),
                ))
            else:
                key = rng.randrange(next_id)
                script.statements.append(Statement(
                    kind,
                    f"DELETE FROM {table_name} WHERE id = {key}",
                    [], ("delete", key),
                ))
            apply_effect(model, script.statements[-1].effect)
        scripts.append(script)
    return scripts
