"""BENCH — the compiled enforcement kernel with and without its memo.

Runs the enforcement chase over Exp-4's RCK-blocking candidates twice
through a compiled plan — similarity memo on, and off — and requires the
two to decide identical matches.  The predicate-call counts and the
seconds of both runs are emitted as diagnostics; what the kernel is worth
on the clock is ``python3 -m bench``'s business, not this file's.

Results are printed as one JSON document per test and appended to the
file named by ``REPRO_BENCH_JSON`` when set (CI schema-checks that file
with ``benchmarks/check_bench_json.py``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.experiments import exp_blocking
from repro.obs import MetricsRegistry

from conftest import kernel_size


def _emit(payload):
    text = json.dumps(payload, sort_keys=True)
    print()
    print(text)
    sink = os.environ.get("REPRO_BENCH_JSON")
    if sink:
        with Path(sink).open("a", encoding="utf-8") as handle:
            handle.write(text + "\n")


def test_kernel_decides_what_the_uncached_path_decides(benchmark):
    """The similarity memo never changes a match decision."""
    size = kernel_size()
    record = benchmark.pedantic(
        exp_blocking.run_kernel_point, args=(size,), kwargs={"seed": 3},
        rounds=1, iterations=1, warmup_rounds=0,
    )
    # Emit the measurements through the one metrics pipeline the rest of
    # the stack reports with (repro.obs), so BENCH JSON and MatchReport
    # stats share a schema.
    registry = MetricsRegistry()
    registry.count("kernel.candidates", record["candidates"])
    registry.count("kernel.matches", record["matches"])
    registry.count("kernel.plan_evaluations", record["plan evaluations"])
    registry.count("kernel.plan_cache_hits", record["plan cache hits"])
    registry.count("kernel.naive_evaluations", record["naive evaluations"])
    registry.observe("kernel.plan_seconds", record["plan seconds"])
    registry.observe("kernel.naive_seconds", record["naive seconds"])
    _emit({
        "benchmark": "plan_kernel_vs_naive",
        "K": record["K"],
        "candidates": record["candidates"],
        "matches": record["matches"],
        "plan_evaluations": record["plan evaluations"],
        "plan_cache_hits": record["plan cache hits"],
        "naive_evaluations": record["naive evaluations"],
        "evaluation_saving": record["evaluation saving"],
        "plan_seconds": record["plan seconds"],
        "naive_seconds": record["naive seconds"],
        "metrics": registry.as_dict(),
    })
    assert record["candidates"] > 0
    assert record["matches"] > 0
    assert record["matches identical"]
