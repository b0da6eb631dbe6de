"""Shared pieces of the runner: statistics, host facts, scratch space."""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from typing import Dict, List, Optional, Sequence

#: Scratch space inside the checkout, on the checkout's own filesystem
#: (path-backed databases must hit the real disk, not tmpfs).
WORK_DIR = ".perfbench_work"
#: A fixed pure-Python loop, timed around each run: host speed drifts
#: by tens of percent between minutes, and this reading is what tells
#: that drift apart from a change in the program.
CALIBRATION_ITERATIONS = 200_000


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def settle_inputs() -> None:
    """Move the generated inputs out of the collector's sight.

    Inputs and their expected answers are many small objects that live
    for the whole run; without this, every collection the program
    triggers would traverse them, and the benchmark's own data would
    slow the program it measures.
    """
    gc.collect()
    gc.freeze()


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrate() -> float:
    """Seconds for the fixed calibration loop (best of three)."""
    best = float("inf")
    for __ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_ITERATIONS):
            total += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best


def work_dir(root: str, name: str) -> str:
    """A fresh, empty directory under the checkout's scratch space."""
    path = os.path.join(root, WORK_DIR, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def filesystem_type(path: str) -> str:
    try:
        done = subprocess.run(
            ["stat", "-f", "-c", "%T", path],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def git_commit(root: str) -> Optional[str]:
    """The checked-out commit, read from ``.git`` (None outside git)."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        packed = os.path.join(root, ".git", "packed-refs")
        with open(packed, encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def host_facts(root: str) -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(root),
        "filesystem": filesystem_type(root),
    }


def windowed(windows: List[tuple]) -> Dict[str, float]:
    """Figures per window, then the median over the run's windows.

    ``windows`` holds ``(seconds, work_units, latencies_ms)`` per window
    (a load, a pass or 50 statements).  The shared host alternates
    between fast and slow stretches of a second or less; a median over
    windows follows the common stretch instead of the share of slow
    ones, which swings from run to run.  A window's 95th percentile
    rests on few samples (on ``udf_analytics`` it is the second slowest
    statement of a pass), but its median over windows measured steadier
    than one percentile over the pooled samples.  The tail rate is the
    median over the later half of the windows (a quarter holds too few
    windows for a steady median).
    """
    rates = [units / seconds for seconds, units, __ in windows]
    return {
        "ops_per_s": median(rates),
        "tail_ops_per_s": median(rates[len(rates) // 2:]),
        "p50_ms": median([percentile(lat, 50) for __, __, lat in windows]),
        "p95_ms": median([percentile(lat, 95) for __, __, lat in windows]),
        "samples": sum(len(lat) for __, __, lat in windows),
    }
