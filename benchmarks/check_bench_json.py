#!/usr/bin/env python
"""Schema-check the JSON lines emitted by the benchmark suite.

CI runs the JSON-emitting benchmarks at smoke scale
(``REPRO_BENCH_TINY=1``) with ``REPRO_BENCH_JSON`` pointing at a scratch
file, then validates that file here.  The checks are *structural and
invariant-based*, never timing-based, so the job is stable on shared
runners:

* every known benchmark document carries its required keys with the
  right types;
* cross-field invariants hold (the kernel charges fewer evaluations
  than the naive path, the streamed rank index equals the batch
  candidate universe, ...);
* an optional ``metrics`` key must be a
  :class:`repro.obs.metrics.MetricsRegistry` rendering — ``counters`` /
  ``gauges`` / ``histograms`` objects, each histogram summary carrying
  ``count`` and (when non-empty) ``p50``/``p95``/``p99``.

Exit status 0 when every line passes, 1 with a per-line report otherwise.

Usage::

    python benchmarks/check_bench_json.py bench.json [more.json ...]

Several files may be named (CI passes the fresh smoke output and the
committed ``benchmarks/baselines/BENCH_*.json`` together); each is
checked independently.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Required keys (name -> type) per benchmark document.
SCHEMAS = {
    "plan_kernel_vs_naive": {
        "K": int,
        "candidates": int,
        "matches": int,
        "plan_evaluations": int,
        "plan_cache_hits": int,
        "naive_evaluations": int,
        "evaluation_saving": float,
        "plan_seconds": float,
        "naive_seconds": float,
    },
    "sn_index": {
        "K": int,
        "candidates": int,
        "blocks": int,
        "matches": int,
        "stream_candidates_identical": int,
    },
    "obs_tracer_overhead": {
        "K": int,
        "traced_off_events": int,
        "traced_on_events": int,
        "noop_call_seconds": float,
        "untraced_seconds": float,
        "overhead_fraction": float,
        "reports_identical": int,
    },
    "store_sqlite": {
        "records": int,
        "ingest_seconds": float,
        "records_per_sec": float,
        "disk_bytes": int,
        "matched_clusters": int,
        "warm_restart_seconds": float,
        "clusters_identical": int,
    },
    "serve": {
        "records": int,
        "batches": int,
        "ingest_seconds": float,
        "ingest_rps": float,
        "match_requests": int,
        "match_p50_ms": float,
        "match_p99_ms": float,
        "chases_batched": int,
        "chases_unbatched": int,
        "commits_batched": int,
        "commits_unbatched": int,
        "clusters_equal": int,
    },
}

#: Keys every histogram summary in a ``metrics`` payload must carry
#: when it observed anything.
_HISTOGRAM_KEYS = ("count", "min", "max", "mean", "p50", "p95", "p99")


def check_metrics(name: str, metrics: object) -> list:
    """Problems with a document's ``metrics`` payload (registry shape)."""
    if not isinstance(metrics, dict):
        return [f"{name}: 'metrics' must be an object"]
    problems = []
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(section), dict):
            problems.append(f"{name}: metrics missing '{section}' object")
    for counter, value in (metrics.get("counters") or {}).items():
        if not isinstance(value, int) or isinstance(value, bool):
            problems.append(
                f"{name}: metrics counter {counter!r} is not an integer"
            )
    for histogram, summary in (metrics.get("histograms") or {}).items():
        if not isinstance(summary, dict) or "count" not in summary:
            problems.append(
                f"{name}: metrics histogram {histogram!r} has no 'count'"
            )
            continue
        if not summary["count"]:
            continue
        for key in _HISTOGRAM_KEYS:
            if not isinstance(summary.get(key), (int, float)) or isinstance(
                summary.get(key), bool
            ):
                problems.append(
                    f"{name}: metrics histogram {histogram!r} missing "
                    f"or mistyped {key!r}"
                )
    return problems


def check_document(document: dict) -> list:
    """Problems with one benchmark document (empty list = OK)."""
    problems = []
    name = document.get("benchmark")
    if name not in SCHEMAS:
        return [f"unknown benchmark name: {name!r}"]
    for key, expected in SCHEMAS[name].items():
        if key not in document:
            problems.append(f"{name}: missing key {key!r}")
            continue
        value = document[key]
        if expected is float:
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        else:
            ok = isinstance(value, expected) and not isinstance(value, bool)
        if not ok:
            problems.append(
                f"{name}: key {key!r} has type {type(value).__name__}, "
                f"expected {expected.__name__}"
            )
    if "metrics" in document:
        problems.extend(check_metrics(name, document["metrics"]))
    if problems:
        return problems

    # Cross-field invariants (regression checks, not timing checks).
    if name == "plan_kernel_vs_naive":
        if document["plan_evaluations"] >= document["naive_evaluations"]:
            problems.append(
                f"{name}: compiled plan no longer saves evaluations "
                f"({document['plan_evaluations']} >= "
                f"{document['naive_evaluations']})"
            )
        if document["plan_cache_hits"] <= 0:
            problems.append(f"{name}: similarity cache never hit")
        if document["matches"] <= 0:
            problems.append(f"{name}: no matches decided")
    elif name == "sn_index":
        if document["stream_candidates_identical"] != 1:
            problems.append(
                f"{name}: the streamed rank index diverged from the batch "
                "candidate universe"
            )
        if document["blocks"] <= 1:
            problems.append(
                f"{name}: the rank encoding collapsed to {document['blocks']} "
                "block(s)"
            )
        if document["matches"] <= 0:
            problems.append(f"{name}: no matches decided")
    elif name == "obs_tracer_overhead":
        if document["traced_off_events"] != 0:
            problems.append(
                f"{name}: tracing-off run recorded "
                f"{document['traced_off_events']} span(s); the null tracer "
                "must record none"
            )
        if document["traced_on_events"] <= 0:
            problems.append(f"{name}: tracing-on run recorded no spans")
        if document["overhead_fraction"] >= 0.02:
            problems.append(
                f"{name}: no-op instrumentation overhead "
                f"{document['overhead_fraction']:.4f} regressed above the "
                "asserted 2%"
            )
        if document["reports_identical"] != 1:
            problems.append(
                f"{name}: traced and untraced runs decided different matches"
            )
    elif name == "store_sqlite":
        if document["records"] <= 0 or document["matched_clusters"] <= 0:
            problems.append(f"{name}: empty run")
        if document["disk_bytes"] <= 0:
            problems.append(f"{name}: store wrote nothing to disk")
        if document["clusters_identical"] != 1:
            problems.append(
                f"{name}: the warm-restarted store and its saved copy "
                "report different clusters"
            )
    elif name == "serve":
        if document["records"] <= 0 or document["batches"] <= 0:
            problems.append(f"{name}: empty run")
        if document["clusters_equal"] != 1:
            problems.append(
                f"{name}: batched service and per-record ingest decided "
                "different clusters"
            )
        if document["chases_batched"] != document["chases_unbatched"]:
            problems.append(
                f"{name}: micro-batches ran other chases than per-record "
                f"ingest runs ({document['chases_batched']} != "
                f"{document['chases_unbatched']})"
            )
        # The service's acceptance bound: one commit per micro-batch, where
        # per-record ingest commits once per record.
        if document["commits_batched"] != document["batches"]:
            problems.append(
                f"{name}: {document['commits_batched']} commit(s) for "
                f"{document['batches']} micro-batch(es)"
            )
        if document["commits_unbatched"] != document["records"]:
            problems.append(
                f"{name}: per-record ingest made {document['commits_unbatched']} "
                f"commit(s) for {document['records']} record(s)"
            )
        if document["match_requests"] <= 0:
            problems.append(f"{name}: no match requests measured")
        if document["match_p50_ms"] > document["match_p99_ms"]:
            problems.append(f"{name}: match p50 exceeds p99")
    return problems


def check_file(path: Path) -> int:
    """Check one benchmark JSON-lines file; returns the failure count."""
    if not path.exists():
        print(f"error: {path} does not exist", file=sys.stderr)
        return 1
    lines = [
        line for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    if not lines:
        print(f"error: {path} is empty — no benchmark emitted JSON", file=sys.stderr)
        return 1
    failures = 0
    seen = set()
    for number, line in enumerate(lines, start=1):
        try:
            document = json.loads(line)
        except json.JSONDecodeError as error:
            print(f"{path}:{number}: invalid JSON ({error})", file=sys.stderr)
            failures += 1
            continue
        seen.add(document.get("benchmark"))
        for problem in check_document(document):
            print(f"{path}:{number}: {problem}", file=sys.stderr)
            failures += 1
    if failures:
        print(f"{failures} problem(s) in {path}", file=sys.stderr)
    else:
        print(f"ok: {path}: {len(lines)} benchmark document(s), {sorted(seen)}")
    return failures


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    failures = sum(check_file(Path(arg)) for arg in argv[1:])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
