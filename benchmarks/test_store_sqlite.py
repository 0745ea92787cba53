"""BENCH — durable SQLite store: ingest throughput and warm restarts.

Measures records/sec for a fully durable ingest (one committed SQLite
transaction per record) and the time to reopen the database (O(1): only
the meta table is read).  The invariant is ``clusters_identical``: the
warm-restarted store and its ``save_store`` copy report the clusters the
ingest ended with.

One JSON document is emitted (appended to ``REPRO_BENCH_JSON`` when
set), schema-checked in CI by ``benchmarks/check_bench_json.py``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.api import Workspace
from repro.datagen.generator import generate_dataset
from repro.datagen.schemas import extended_mds
from repro.datagen.streams import duplicate_burst_stream
from repro.engine import SQLiteMatchStore, save_store

from conftest import engine_stream_size


def _emit(payload):
    text = json.dumps(payload, sort_keys=True)
    print()
    print(text)
    sink = os.environ.get("REPRO_BENCH_JSON")
    if sink:
        with Path(sink).open("a", encoding="utf-8") as handle:
            handle.write(text + "\n")


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(engine_stream_size(), seed=11)


@pytest.fixture(scope="module")
def workload(dataset):
    return duplicate_burst_stream(dataset, seed=3)


def _workspace(dataset, path):
    return (
        Workspace.builder()
        .pair(dataset.pair)
        .target(dataset.target)
        .mds(extended_mds(dataset.pair))
        .execution(top_k=5)
        .persistence("sqlite", str(path))
        .workspace()
    )


def _best_of(runs, action):
    """Fastest of ``runs`` timed calls — the least-noise estimator on
    shared runners (cold caches and scheduler hiccups only add time)."""
    best = None
    for _ in range(runs):
        start = time.perf_counter()
        result = action()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def test_durable_ingest_and_warm_restart(benchmark, dataset, workload,
                                         tmp_path):
    db_path = tmp_path / "bench-store.db"

    def durable_ingest():
        if db_path.exists():
            db_path.unlink()
        matcher = _workspace(dataset, db_path).stream()
        matcher.ingest_stream(workload.events)
        matcher.store.close()
        return matcher

    benchmark.pedantic(durable_ingest, rounds=3, iterations=1,
                       warmup_rounds=0)
    ingest_seconds = benchmark.stats.stats.mean

    store = SQLiteMatchStore(db_path)
    copy_path = tmp_path / "bench-copy.db"
    save_store(store, copy_path)
    disk_bytes = store.disk_bytes()
    clusters = store.clusters()
    store.close(commit=False)

    def warm_restart():
        reopened = SQLiteMatchStore(db_path)
        reopened.close(commit=False)
        return SQLiteMatchStore(db_path)

    warm_seconds, warm_store = _best_of(5, warm_restart)
    copy = SQLiteMatchStore(copy_path)
    clusters_identical = int(warm_store.clusters() == clusters == copy.clusters())
    warm_store.close(commit=False)
    copy.close(commit=False)

    _emit({
        "benchmark": "store_sqlite",
        "records": len(workload.events),
        "ingest_seconds": ingest_seconds,
        "records_per_sec": len(workload.events) / ingest_seconds,
        "disk_bytes": disk_bytes,
        "matched_clusters": len(clusters),
        "warm_restart_seconds": warm_seconds,
        "clusters_identical": clusters_identical,
    })
    assert clusters_identical == 1
