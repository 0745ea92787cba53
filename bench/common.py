"""Shared plumbing: paths, statistics, child processes, memory, scoring.

Nothing here imports :mod:`repro` at module level — ``require_source``
puts the checkout's ``src/`` on ``sys.path`` first, so the benchmark
always measures the code it sits next to (never an installed copy) and
fails fast in a directory that has no program to measure.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .hostspeed import pin

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Scratch space for generated inputs and stores; inside the checkout
#: (the benchmark may not write elsewhere) and named in ``.gitignore``.
WORK_ROOT = ROOT / ".bench_work"

Pair = Tuple[int, int]
#: One cluster as ``(sorted left tids, sorted right tids)``.
ClusterKey = Tuple[Tuple[int, ...], Tuple[int, ...]]


def require_source() -> None:
    """Put ``src/`` first on ``sys.path``; exit 2 when it is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no program to measure: {SRC / 'repro'} is missing "
            "(run from a checkout of the repository)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """The environment of every child: this checkout's source, unbuffered
    stdout (the serve child's "listening on" line must not sit in a pipe
    buffer)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    rank = (q / 100.0) * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


def segment_percentile(segments: Sequence[Sequence[float]], q: float) -> float:
    """The median over ``segments`` of each segment's ``q``-th percentile.

    One stall (a WAL checkpoint's fsync, a descheduled CPU) drags a few
    dozen consecutive samples into the tail; pooled, it moves a p95 by a
    fifth, and whether a 20 s run holds none, one or two of them is luck.
    Taken per segment and then as a median, a stall counts only once it
    is in most segments.
    """
    return statistics.median(percentile(segment, q) for segment in segments)


def summarise(values: Sequence[float]) -> Dict[str, float]:
    """median / Q1 / Q3 / n — the shape every reported timing has."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


# ----------------------------------------------------------------------
# Child processes and memory
# ----------------------------------------------------------------------


class ChildResult(NamedTuple):
    """Exit code, start instant (``perf_counter``), wall seconds, peak RSS
    and captured stdout of one child."""

    returncode: int
    started: float
    wall: float
    rss_mb: float
    stdout: bytes


def _vm_hwm_mb(pid) -> Optional[float]:
    """``VmHWM`` of ``pid`` (or ``"self"``) from ``/proc``, in MB; ``None``
    once the process is gone or a zombie."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def wait_child(process: subprocess.Popen, timeout: float) -> Tuple[int, float]:
    """Reap ``process`` (killed after ``timeout`` seconds) and return its
    exit code and its peak RSS in MB.

    The peak is the child's ``VmHWM``, sampled every 20 ms until it exits:
    ``wait4``'s ``ru_maxrss`` starts from the *spawning* process's
    high-water mark (the mark survives ``exec``), so it reads the
    benchmark's own size whenever that is the larger one.  It is the
    fallback where ``/proc`` cannot be read.
    """
    sampled = [0.0]
    exited = threading.Event()

    def sample() -> None:
        while True:
            value = _vm_hwm_mb(process.pid)
            if value is not None:
                sampled[0] = value
            if exited.wait(0.02):
                return

    def kill() -> None:
        # Not Popen.kill: it polls first, racing the wait4 below for the reap.
        try:
            os.kill(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    sampler = threading.Thread(target=sample, name="bench-rss")
    timer = threading.Timer(timeout, kill)
    sampler.start()
    timer.start()
    try:
        _, status, usage = os.wait4(process.pid, 0)
    except BaseException:
        # Interrupted (SIGTERM, Ctrl-C): no child outlives the benchmark.
        kill()
        os.wait4(process.pid, 0)
        raise
    finally:
        timer.cancel()
        exited.set()
        sampler.join()
    process.returncode = os.waitstatus_to_exitcode(status)
    return process.returncode, sampled[0] or usage.ru_maxrss / 1024.0


def run_child(
    argv: Sequence[str], stdout_path: Path, cpu: int, timeout: float = 170.0
) -> ChildResult:
    """Run one child to completion on ``cpu``, process start to exit on
    the clock.

    Stdout goes to a file (a 2 MB report must not block on a pipe while
    nobody reads it); stderr is inherited so a crash is visible.
    """
    with stdout_path.open("wb") as sink:
        started = time.perf_counter()
        process = subprocess.Popen(list(argv), stdout=sink, env=child_env())
        pin(process.pid, cpu)
        returncode, rss_mb = wait_child(process, timeout)
        wall = time.perf_counter() - started
    return ChildResult(returncode, started, wall, rss_mb, stdout_path.read_bytes())


def reset_peak_rss() -> None:
    """Restart this process's RSS high-water mark (Linux; best effort)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """This process's RSS high-water mark since the last reset."""
    mark = _vm_hwm_mb("self")
    if mark is not None:
        return mark
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Scoring and correctness
# ----------------------------------------------------------------------


def cluster_keys(clusters: Iterable) -> List[ClusterKey]:
    """Sorted, hashable cluster keys from ``Cluster`` objects or the
    ``{"left_tids", "right_tids"}`` dicts the CLI and ``/query`` print.
    Singletons are dropped: the CLI never reports them."""
    keys = []
    for cluster in clusters:
        if isinstance(cluster, dict):
            left, right = cluster["left_tids"], cluster["right_tids"]
        else:
            left, right = cluster.left_tids, cluster.right_tids
        if len(left) + len(right) > 1:
            keys.append((tuple(sorted(left)), tuple(sorted(right))))
    return sorted(keys)


def clusters_digest(keys: Sequence[ClusterKey]) -> str:
    """sha256 over the sorted clusters — what ``expected.json`` pins."""
    text = json.dumps([[list(left), list(right)] for left, right in keys])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def implied_pairs(keys: Sequence[ClusterKey]) -> Set[Pair]:
    """Every (left, right) pair two records in one cluster imply."""
    return {
        (left_tid, right_tid)
        for left, right in keys
        for left_tid in left
        for right_tid in right
    }


def pair_f1(predicted: Set[Pair], truth: Set[Pair]) -> float:
    """Pairwise F1 against the generator's ground truth."""
    if not predicted or not truth:
        return 0.0
    hits = len(predicted & truth)
    if not hits:
        return 0.0
    precision = hits / len(predicted)
    recall = hits / len(truth)
    return 2.0 * precision * recall / (precision + recall)


# ----------------------------------------------------------------------
# Run records
# ----------------------------------------------------------------------


def commit_hash() -> Optional[str]:
    """The checkout's commit, or ``None`` outside a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_record(seed: int, seconds: float, tiny: bool, sizes: Dict[str, object]) -> Dict[str, object]:
    """What every run carries so two results can be told apart."""
    return {
        "commit": commit_hash(),
        "seed": seed,
        "seconds": seconds,
        "tiny": tiny,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sizes": sizes,
    }


def expected_digest(workload: str, seed: int, tiny: bool) -> Optional[str]:
    """The pinned cluster digest for this run, when there is one.

    ``expected.json`` pins the full-size workloads at one seed; any other
    run is covered by the cross-checks alone.
    """
    pinned = json.loads((ROOT / "bench" / "expected.json").read_text(encoding="utf-8"))
    if tiny or seed != pinned["seed"]:
        return None
    return pinned["digests"].get(workload)


def load_benchmark_json() -> Dict[str, object]:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
