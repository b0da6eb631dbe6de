"""``oltp_server``: a closed-loop client against ``AsyncDatabaseServer``.

The server runs in a child process (``python3 -m perfbench.oltp_server
--child``) over a path-backed WAL database (group commit window 0.0),
so the client threads in this process never share its interpreter
lock.  Each client (:data:`CLIENTS` of them) owns one tenant and one
indexed table and waits for each reply before sending its next
statement, as a connection pool does.  Clients check every answer against their own table's model,
which is exact because no other client writes that table, and check the
table's whole contents after the run.

Child protocol, one JSON object per line on its stdout: a ``ready``
line after set-up, then one reply per ``begin``/``end``/``quit``
command read from stdin.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from typing import Dict, List

from repro.database import Database
from repro.server import AsyncDatabaseServer
from repro.server.client import Client

from . import gen, harness
from .layers import counters, layer_metrics, rows_examined_by_kind
from .trace import Recorder, install

TABLE_ROWS = 2000
STATEMENTS_PER_CLIENT = 8000
SETUPS = 3
#: Statements per measurement window (about a second of this workload).
WINDOW_STATEMENTS = 50
CHILD_TIMEOUT = 60.0


#: One client connection.  The server runs statements on a pool of
#: ``nproc`` threads, but they share one interpreter lock, so a second
#: closed-loop client added no throughput here (65 against 62
#: statements/s on 2 CPUs) and only queued behind the first, while its
#: thread switching made runs spread two to six times wider.
CLIENTS = 1


def server_concurrency() -> int:
    return max(1, min(2, os.cpu_count() or 1))


# -- child: the server process ----------------------------------------------------


def _child_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--child", action="store_true")
    parser.add_argument("--root", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--clients", type=int, required=True)
    parser.add_argument("--concurrency", type=int, required=True)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--setups", type=int, required=True)
    parser.add_argument("--trace-file", default="")
    args = parser.parse_args(argv)
    scripts = gen.oltp_scripts(args.seed, args.clients, args.rows, 0)
    harness.settle_inputs()
    setup_times = []
    db = server = None
    for index in range(args.setups):
        if server is not None:
            server.stop()
            db.close()
        path = harness.work_dir(args.root, f"oltp{index}")
        started = time.perf_counter()
        db = Database(path, group_commit_window=0.0)
        for script in scripts:
            db.execute(gen.OLTP_SCHEMA.format(table=script.table))
            db.execute(gen.OLTP_INDEX.format(table=script.table))
            db.insert_rows(script.table, script.initial)
        server = AsyncDatabaseServer(db, concurrency=args.concurrency)
        server.start()
        setup_times.append(time.perf_counter() - started)
    _reply({
        "port": server.port, "setup_s": harness.median(setup_times),
        "buffer_pool_bytes": db.pool.capacity * db.disk.page_size,
        "data_bytes": db.disk.num_pages * db.disk.page_size,
        "page_size": db.disk.page_size,
    })

    recorder = tracer = before = None
    try:
        for line in sys.stdin:
            command = line.split()
            if command[0] == "begin":
                before = counters(db)
                if command[1] == "1":
                    recorder = Recorder()
                    recorder.phase = "run"
                    tracer = install(recorder)
                _reply({"ok": True})
            elif command[0] == "end":
                reply: Dict[str, object] = {"peak_rss_mb": harness.peak_rss_mb()}
                if tracer is not None:
                    tracer.uninstall()
                    tracer = None
                    reply["layers"] = layer_metrics(
                        recorder, before, counters(db))
                    reply["rows_examined_by_kind"] = rows_examined_by_kind(
                        recorder)
                    if args.trace_file:
                        recorder.write_jsonl(args.trace_file)
                _reply(reply)
            elif command[0] == "quit":
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        server.stop()
        db.close()
    _reply({"bye": True})
    return 0


def _reply(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


# -- parent: the clients ---------------------------------------------------------------


class _ClientLoop:
    """One client connection working through its script."""

    def __init__(self, port: int, tenant: str, script: gen.ClientScript):
        self.client = Client("127.0.0.1", port, tenant=tenant)
        self.script = script
        self.position = 0
        self.samples: List[tuple] = []  # (is_write, latency_ms, end_time)
        self.attempted = 0
        self.failed = 0
        self.broken = False

    def run_until(self, deadline: float, start: threading.Event) -> None:
        start.wait()
        statements = self.script.statements
        while (not self.broken and self.position < len(statements)
               and time.perf_counter() < deadline):
            statement = statements[self.position]
            self.position += 1
            self.attempted += 1
            started = time.perf_counter()
            try:
                reply = self.client.execute(statement.sql)
            except Exception:  # a failed statement is counted, not fatal
                self.failed += 1
                self.broken = not _connected(self.client)
                continue
            ended = time.perf_counter()
            self.samples.append(
                (statement.is_write, (ended - started) * 1e3, ended))
            if not statement.check(reply.rows):
                self.failed += 1

    def check_contents(self) -> bool:
        rows = self.client.execute(
            f"SELECT id, k, name FROM {self.script.table}").rows
        expected = self.script.contents_after(self.position)
        return sorted(tuple(row) for row in rows) == expected


def _connected(client) -> bool:
    try:
        return client.ping()
    except Exception:
        return False


class _Child:
    """The server process, driven line by line."""

    def __init__(self, root: str, seed: int, clients: int, rows: int,
                 setups: int, trace_file: str):
        command = [
            sys.executable, "-m", "perfbench.oltp_server", "--child",
            "--root", root, "--seed", str(seed), "--clients", str(clients),
            "--concurrency", str(server_concurrency()),
            "--rows", str(rows), "--setups", str(setups),
            "--trace-file", trace_file,
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )

    def read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("server process ended without a reply")
        return json.loads(line)

    def send(self, command: str) -> dict:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return self.read()

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                self.send("quit")
                self.process.wait(timeout=CHILD_TIMEOUT)
            except (OSError, RuntimeError, ValueError,
                    subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            stream.close()


def _phase(child: _Child, loops: List[_ClientLoop], seconds: float,
           traced: bool) -> dict:
    """Run every client for ``seconds``; returns samples and the child's
    end-of-phase reply."""
    marks = [len(loop.samples) for loop in loops]
    child.send(f"begin {1 if traced else 0}")
    start = threading.Event()
    began = time.perf_counter()
    deadline = began + seconds
    threads = [threading.Thread(target=loop.run_until, args=(deadline, start))
               for loop in loops]
    for thread in threads:
        thread.start()
    start.set()
    for thread in threads:
        thread.join()
    samples = [s for loop, mark in zip(loops, marks) for s in loop.samples[mark:]]
    reply = child.send("end")
    reply["samples"] = samples
    reply["began"] = began
    return reply


def _figures(samples: List[tuple], began: float) -> Dict[str, float]:
    """End-to-end figures over windows of consecutive completions, plus
    read/write percentiles and the mean over every statement."""
    ordered = sorted(samples, key=lambda sample: sample[2])
    edges = [began] + [sample[2] for sample in ordered]
    windows = []
    for start in range(0, len(ordered) - WINDOW_STATEMENTS + 1,
                       WINDOW_STATEMENTS):
        end = start + WINDOW_STATEMENTS
        windows.append((edges[end] - edges[start], WINDOW_STATEMENTS,
                        [sample[1] for sample in ordered[start:end]]))
    figures = harness.windowed(windows or [
        (edges[-1] - began, len(ordered), [s[1] for s in ordered])])
    everything = [s[1] for s in samples]
    reads = [s[1] for s in samples if not s[0]] or [0.0]
    writes = [s[1] for s in samples if s[0]] or [0.0]
    figures.update(
        read_p50_ms=harness.percentile(reads, 50),
        read_p95_ms=harness.percentile(reads, 95),
        write_p50_ms=harness.percentile(writes, 50),
        write_p95_ms=harness.percentile(writes, 95),
        mean_ms=sum(everything) / len(everything),
    )
    return figures


def run(root: str, seed: int, seconds: float, trace: bool,
        rows: int = TABLE_ROWS, statements: int = STATEMENTS_PER_CLIENT,
        setups: int = SETUPS, trace_file: str = "") -> dict:
    clients = CLIENTS
    scripts = gen.oltp_scripts(seed, clients, rows, statements)
    harness.settle_inputs()
    child = _Child(root, seed, clients, rows, setups,
                   trace_file if trace else "")
    loops: List[_ClientLoop] = []
    try:
        ready = child.read()
        loops = [_ClientLoop(ready["port"], f"tenant{i}", script)
                 for i, script in enumerate(scripts)]
        untraced = _phase(child, loops, seconds, traced=False)
        figures = _figures(untraced["samples"], untraced["began"])
        result = {
            "config": {
                "clients": clients,
                "server_concurrency": server_concurrency(),
                "table_rows": rows,
                "buffer_pool_bytes": ready["buffer_pool_bytes"],
                "data_bytes": ready["data_bytes"],
                "flush_policy": "wal=on group_commit_window=0.0",
                "latency_samples": figures.pop("samples"),
            },
            "end_to_end": {
                "setup_s": ready["setup_s"],
                "ops_per_s": figures["ops_per_s"],
                "tail_ops_per_s": figures["tail_ops_per_s"],
                "p50_ms": figures["p50_ms"],
                "p95_ms": figures["p95_ms"],
                "peak_rss_mb": untraced["peak_rss_mb"],
            },
            "detail": {
                key: figures[key] for key in (
                    "read_p50_ms", "read_p95_ms",
                    "write_p50_ms", "write_p95_ms")
            },
        }
        if trace:
            traced = _phase(child, loops, seconds, traced=True)
            traced_figures = _figures(traced["samples"], traced["began"])
            layers = traced["layers"]
            statement_ms = layers.pop("server.statement_ms")
            layers["server.overhead_ms"] = (
                traced_figures["mean_ms"] - statement_ms
                if statement_ms is not None else None
            )
            layers["trace.overhead"] = (
                figures["ops_per_s"] / traced_figures["ops_per_s"] - 1.0
            )
            result["layers"] = layers
            result["sanity"] = {
                "rows_examined_per_row_out_by_statement":
                    traced["rows_examined_by_kind"],
                "image_rows_per_read_over_table_rows":
                    (layers["storage.mvcc.image_rows_per_read"] or 0) / rows,
                "wal_bytes_per_commit_over_page_size":
                    (layers["storage.wal.bytes_per_commit"] or 0)
                    / ready["page_size"],
            }
        attempted = sum(loop.attempted for loop in loops)
        failed = sum(loop.failed for loop in loops)
        for loop in loops:
            attempted += 1
            try:
                intact = not loop.broken and loop.check_contents()
            except Exception:  # a failed check counts like a wrong answer
                intact = False
            failed += not intact
        result["attempted"] = attempted
        result["failed"] = failed
    finally:
        for loop in loops:
            loop.client.close()
        child.close()
    return result


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
