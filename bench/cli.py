"""``python3 -m bench``: run the workloads, check them, print every metric.

Two passes, never mixed: the **end-to-end** pass measures with nothing
installed (one warm-up discarded, repeats interleaved across workloads);
the **traced** pass re-runs each workload once with the wrappers and the
program's own spans on, and yields the per-layer numbers.  ``--trace 0``
/ ``--trace 1`` select one pass (the form the regression driver calls);
without ``--trace`` both run.

The last line of standard output is one JSON object.  For one workload
and one pass it has exactly the keys ``correct``, ``attempted``,
``failed`` and ``metrics`` (every end-to-end metric of ``BENCHMARK.json``
with ``--trace 0``, every per-layer metric with ``--trace 1``; a layer
the workload bypasses reads 0).  The exit code is 0 only if every
correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import inputs
from .common import (
    ROOT,
    WORK_ROOT,
    load_benchmark_json,
    require_source,
    run_record,
)
from .hostspeed import REFERENCE_UNIT_S, HostSpeed
from .result import Measure, PassResult, bypassed, median_of


#: Host-speed units run before and after each set-up.
SETUP_TICKS = 5


def _workload(name: str, seed: int, seconds: float, tiny: bool, workdir: Path,
              host: HostSpeed):
    from .match import MatchWorkload
    from .serve import ServeWorkload
    from .stream import StreamWorkload

    kinds = {
        "match_dense": MatchWorkload,
        "match_sparse": MatchWorkload,
        "stream_durable": StreamWorkload,
        "serve_mixed": ServeWorkload,
    }
    return kinds[name](name, seed, seconds, tiny, workdir, host)


# ----------------------------------------------------------------------
# The two passes
# ----------------------------------------------------------------------


def end_to_end_pass(names, seed, seconds, tiny, workdir: Path,
                    host: HostSpeed) -> Dict[str, PassResult]:
    """Set up (several times, for a median), warm up once, then run the
    repeats round-robin so slow drift hits every workload alike."""
    workloads = [
        _workload(name, seed, seconds, tiny, workdir / "e2e", host) for name in names
    ]
    setup_s: Dict[str, List[float]] = {}
    results: Dict[str, PassResult] = {}
    try:
        for workload in workloads:
            times = []
            for _ in range(workload.config["setup_repeats"]):
                host.local.tick(SETUP_TICKS)
                began = time.perf_counter()
                workload.setup()
                ended = time.perf_counter()
                host.local.tick(SETUP_TICKS)
                times.append(
                    (ended - began) / workload.setup_timeline.slowdown(began, ended))
            setup_s[workload.name] = times
        for workload in workloads:
            workload.warmup()
        for index in range(max(workload.repeats for workload in workloads)):
            for workload in workloads:
                if index < workload.repeats:
                    workload.repeat(index)
        for workload in workloads:
            result = workload.finish()
            result.metrics["setup_s"] = median_of(setup_s[workload.name])
            results[workload.name] = result
    finally:
        for workload in workloads:
            workload.close()
    return results


def traced_pass(names, seed, seconds, tiny, workdir: Path,
                host: HostSpeed) -> Dict[str, PassResult]:
    """Per-layer timings stay as the clock read them; the host's slowdown
    over each workload's traced run is reported beside them."""
    results: Dict[str, PassResult] = {}
    for name in names:
        workload = _workload(name, seed, seconds, tiny, workdir / "traced", host)
        try:
            began = time.perf_counter()
            workload.setup()
            results[name] = workload.trace()
            results[name].metrics["host.slowdown"] = Measure(
                host.program.slowdown(began, time.perf_counter()),
                note=f"reference unit {REFERENCE_UNIT_S * 1000.0:g} ms",
            )
        finally:
            workload.close()
    return results


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def _declared(benchmark: Dict[str, object], tier: str) -> Dict[str, Dict[str, object]]:
    return {entry["name"]: entry for entry in benchmark[tier]}


def complete(result: PassResult, declared: Dict[str, Dict[str, object]]) -> None:
    """Every declared metric appears once: fill the layers this workload
    bypasses, refuse a name ``BENCHMARK.json`` does not know."""
    unknown = sorted(set(result.metrics) - set(declared))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    for name in declared:
        if name not in result.metrics:
            result.metrics[name] = bypassed()
    for name, measure in result.metrics.items():
        if measure.value is not None and not math.isfinite(measure.value):
            result.problems.append(f"{name} is not finite")


def _format(value: float) -> str:
    return f"{value:.6g}"


def print_pass(title, results: Dict[str, PassResult], declared) -> None:
    for workload, result in results.items():
        verdict = "correct" if result.correct else "INCORRECT"
        print(
            f"== {workload} {title}: attempted {result.attempted}, "
            f"failed {result.failed}, {verdict}"
        )
        for problem in result.problems:
            print(f"!! {workload}: {problem}")
        for name in declared:
            measure = result.metrics[name]
            unit = declared[name]["unit"]
            if measure.value is None:
                print(f"{workload} {name} {unit} null ({measure.note})")
                continue
            summary = measure.summary()
            line = f"{workload} {name} {unit} {_format(summary['value'])} n={summary['n']}"
            if summary["n"] > 1:
                line += f" q1={_format(summary['q1'])} q3={_format(summary['q3'])}"
            if measure.note:
                line += f" ({measure.note})"
            print(line)
        if title == "end-to-end":
            print(
                f"{workload} failed_frac frac "
                f"{_format(result.failed / result.attempted)} "
                f"({result.failed} of {result.attempted} operations)"
            )
            for name, value in result.raw["uncompensated"].items():
                print(
                    f"{workload} uncompensated.{name} {declared[name]['unit']} "
                    f"{_format(value)} (as the clock read it)"
                )


def driver_line(result: PassResult, declared) -> Dict[str, object]:
    """The contract's result object for one workload and one pass."""
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {
                "value": 0.0 if result.metrics[name].value is None
                else result.metrics[name].value,
                "unit": declared[name]["unit"],
            }
            for name in declared
        },
    }


def document_of(results: Dict[str, PassResult]) -> Dict[str, object]:
    return {
        workload: {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "problems": result.problems,
            "metrics": {
                name: {**measure.summary(), "samples": measure.samples}
                for name, measure in result.metrics.items()
            },
            "raw": result.raw,
            "spans": result.spans,
        }
        for workload, result in results.items()
    }


# ----------------------------------------------------------------------
# Self-check: two sets on the same code
# ----------------------------------------------------------------------


def selfcheck(args: argparse.Namespace, names, workdir: Path, benchmark) -> int:
    """Run the end-to-end pass twice; fail if any median moves by more
    than its bound (``f1`` and the failure count must agree exactly).

    Each set is a process of its own: a second set in the process of the
    first reads a ``peak_rss_mb`` 10-15 % higher for ``stream_durable``,
    which measures its own process — what the allocator kept, not the
    program."""
    declared = _declared(benchmark, "end_to_end")
    sets = []
    for index in range(2):
        out = workdir / f"set{index}.json"
        argv = [sys.executable, "-m", "bench", "--trace", "0", "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--out", str(out)]
        if args.tiny:
            argv.append("--tiny")
        if args.workload:
            argv += ["--workload", args.workload]
        child = subprocess.Popen(argv, cwd=ROOT)
        try:
            child.wait()
        except BaseException:
            # SIGTERM, not kill: the set has children of its own to reap.
            child.terminate()
            child.wait()
            raise
        if not out.exists():
            print(f"selfcheck: set {index + 1} exited {child.returncode} without a result")
            return 1
        sets.append(json.loads(out.read_text(encoding="utf-8"))["end_to_end"])
    worst = 0
    for workload in names:
        first, second = (results[workload] for results in sets)
        if not (first["correct"] and second["correct"]):
            print(f"selfcheck {workload}: a correctness check failed")
            worst = 1
        if first["failed"] != second["failed"]:
            print(f"selfcheck {workload} failed: {first['failed']} vs {second['failed']} FAIL")
            worst = 1
        for name, entry in declared.items():
            a, b = (results["metrics"][name]["value"] for results in (first, second))
            moved = abs(b - a) / abs(a) if a else float(b != a)
            bound = 0.0 if name == "f1" else entry["bound"]
            verdict = "ok" if moved <= bound else "FAIL"
            print(
                f"selfcheck {workload} {name} {_format(a)} vs {_format(b)} "
                f"moved {moved:.4f} bound {bound:g} {verdict}"
            )
            if moved > bound:
                worst = 1
    return worst


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python3 -m bench",
        description="Wall-clock benchmark of the whole stack; see bench/README.md.",
    )
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED,
                        help="workload seed: the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, default=inputs.DEFAULT_SECONDS,
                        help="timed seconds per workload (repeats are sized to it)")
    parser.add_argument("--workload", choices=inputs.WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--trace", nargs="?", const=1, type=int, choices=(0, 1),
                        help="1 (or bare): the traced per-layer pass only; "
                             "0: the end-to-end pass only; omitted: both")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: seconds of runtime, no timing value")
    parser.add_argument("--out", type=Path,
                        help="write every metric, raw sample and span as JSON")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the end-to-end pass twice and compare within the bounds")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse(argv)
    require_source()
    benchmark = load_benchmark_json()
    names = [args.workload] if args.workload else list(inputs.WORKLOADS)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = WORK_ROOT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    sizes = inputs.sizes(args.tiny)
    record = run_record(
        args.seed, args.seconds, args.tiny, {name: sizes[name] for name in names})
    print(f"# bench: {json.dumps(record, sort_keys=True)}")
    host: Optional[HostSpeed] = None
    try:
        if args.selfcheck:
            return selfcheck(args, names, workdir, benchmark)
        host = HostSpeed(workdir)
        passes: Dict[str, Dict[str, PassResult]] = {}
        if args.trace in (None, 0):
            passes["end_to_end"] = end_to_end_pass(
                names, args.seed, args.seconds, args.tiny, workdir, host)
        if args.trace in (None, 1):
            passes["per_layer"] = traced_pass(
                names, args.seed, args.seconds, args.tiny, workdir, host)
        host_samples = {
            "program": host.program.samples(), "local": host.local.samples()}
    finally:
        if host is not None:
            host.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_if_empty(WORK_ROOT)

    titles = {"end_to_end": "end-to-end", "per_layer": "per-layer (traced)"}
    for tier, results in passes.items():
        declared = _declared(benchmark, tier)
        for result in results.values():
            complete(result, declared)
        print_pass(titles[tier], results, declared)
    if args.out is not None:
        args.out.write_text(
            json.dumps(
                {"record": record, "host_speed": host_samples,
                 **{tier: document_of(r) for tier, r in passes.items()}},
                sort_keys=True,
            ) + "\n",
            encoding="utf-8",
        )
    every = [result for results in passes.values() for result in results.values()]
    if len(every) == 1:
        (tier, results), = passes.items()
        last = driver_line(every[0], _declared(benchmark, tier))
    else:
        last = {
            "correct": all(result.correct for result in every),
            "attempted": sum(result.attempted for result in every),
            "failed": sum(result.failed for result in every),
        }
    print(json.dumps(last))
    return 0 if all(result.correct for result in every) else 1


def _remove_if_empty(directory: Path) -> None:
    try:
        directory.rmdir()
    except OSError:
        pass
