"""BENCH — the resolution service: micro-batched ingest over HTTP.

Runs the real server (asyncio loop on its own thread, stdlib
``http.client`` driving the wire protocol) over a serving-shaped
workload: a warm partial customer base, then live billing traffic, most
of it from unknown card holders.  Three claims are measured:

* ingest throughput through the full HTTP + micro-batch + engine stack
  on the memory store (records/sec, reported only — no timing assertion
  on shared runners);
* match latency quantiles straight from the server's own
  ``serve.match.seconds`` histogram (p50/p99);
* what a micro-batch amortises: one store commit per batch where
  one-at-a-time ingest of the same events commits once per record — at
  *equal work and equal correctness* (the same chases, identical final
  clusters), which are the deterministic acceptance bounds checked here
  and in ``check_bench_json.py``.

One JSON document is emitted (appended to ``REPRO_BENCH_JSON`` when
set); the committed baseline lives at
``benchmarks/baselines/BENCH_serve.json``.
"""

from __future__ import annotations

import http.client
import json
import os
import time
from pathlib import Path

from repro.api import Workspace
from repro.core.schema import LEFT
from repro.datagen.generator import generate_dataset
from repro.datagen.schemas import extended_mds
from repro.datagen.streams import arrival_stream
from repro.serve import ResolutionServer, ServerThread

from conftest import serve_size

BATCH = 32
MATCH_REQUESTS = 20


def _emit(payload):
    text = json.dumps(payload, sort_keys=True)
    print()
    print(text)
    sink = os.environ.get("REPRO_BENCH_JSON")
    if sink:
        with Path(sink).open("a", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _serving_workload(size):
    """Warm base + live traffic: 20% of card holders are enrolled up
    front, then every billing transaction arrives — most from unknown
    holders."""
    source = generate_dataset(
        size, duplicate_fraction=0.15, namesake_fraction=0.35, seed=13
    )
    events = list(arrival_stream(source).events)
    credit = [event for event in events if event.side == LEFT]
    billing = [event for event in events if event.side != LEFT]
    warm = [event for event in credit if (event.entity % 100) < 20]
    return source, warm + billing


def _spec(source):
    return (
        Workspace.builder()
        .pair(source.pair)
        .target(source.target)
        .mds(extended_mds(source.pair))
        .blocking("hash")
        .execution(top_k=5)
        .serve(port=0, max_batch=BATCH)
        .build()
    )


def _count_commits(store):
    """Count the engine's commits on ``store``.  The measured store is the
    memory one, whose commit is a no-op with no counter of its own, so the
    count wraps its ``commit``; what one costs is the SQLite benchmark's
    business (``test_store_sqlite.py``)."""
    commits = [0]
    commit = store.commit

    def counted():
        commits[0] += 1
        commit()

    store.commit = counted
    return commits


def _request(connection, method, path, body=None):
    payload = json.dumps(body) if body is not None else None
    headers = {"Content-Type": "application/json"} if payload else {}
    connection.request(method, path, body=payload, headers=headers)
    response = connection.getresponse()
    raw = response.read()
    return response.status, json.loads(raw)


def test_micro_batched_service_amortizes_the_commit():
    source, stream = _serving_workload(serve_size())
    spec = _spec(source)
    thread = ServerThread(ResolutionServer(spec))
    host, port = thread.start()
    try:
        tenant = thread.server.tenant
        server_commits = _count_commits(tenant.matcher.store)
        connection = http.client.HTTPConnection(host, port, timeout=120)
        try:
            # Ingest through the wire in full micro-batches (the
            # steady-traffic shape); wall time covers HTTP framing,
            # queueing, the engine work and one commit per batch.
            batches = 0
            started = time.perf_counter()
            for start in range(0, len(stream), BATCH):
                status, body = _request(
                    connection,
                    "POST",
                    "/ingest",
                    {
                        "records": [
                            {
                                "side": "left" if event.side == LEFT else "right",
                                "values": dict(event.values),
                                "tid": event.tid,
                            }
                            for event in stream[start : start + BATCH]
                        ]
                    },
                )
                assert status == 200, body
                batches += 1
            ingest_seconds = time.perf_counter() - started
            # Snapshot the counters now: the match phase below drives the
            # same compiled plan and would inflate the chases.
            chases_batched = tenant.workspace.plan.stats.enforcements
            commits_batched = server_commits[0]

            # Match latency, measured by the server itself: quantiles
            # come from its per-endpoint histogram, not client clocks.
            left_rows = [
                dict(event.values) for event in stream if event.side == LEFT
            ][:3]
            right_rows = [
                dict(event.values) for event in stream if event.side != LEFT
            ][:3]
            for _ in range(MATCH_REQUESTS):
                status, body = _request(
                    connection,
                    "POST",
                    "/match",
                    {"left": left_rows, "right": right_rows},
                )
                assert status == 200, body
            status, metrics = _request(connection, "GET", "/metrics")
            assert status == 200
            summary = metrics["server"]["histograms"]["serve.match.seconds"]
            assert summary["count"] == MATCH_REQUESTS
        finally:
            connection.close()

        server_clusters = tenant.matcher.store.clusters()
    finally:
        thread.stop()

    # The unbatched control: the same events, one commit per record.
    offline = Workspace(spec)
    offline_matcher = offline.stream()
    offline_commits = _count_commits(offline_matcher.store)
    offline_matcher.ingest_stream(stream)
    commits_unbatched = offline_commits[0]
    chases_unbatched = offline.plan.stats.enforcements
    clusters_equal = int(server_clusters == offline_matcher.store.clusters())

    _emit({
        "benchmark": "serve",
        "records": len(stream),
        "batches": batches,
        "ingest_seconds": ingest_seconds,
        "ingest_rps": len(stream) / ingest_seconds,
        "match_requests": MATCH_REQUESTS,
        "match_p50_ms": summary["p50"] * 1000.0,
        "match_p99_ms": summary["p99"] * 1000.0,
        "chases_batched": chases_batched,
        "chases_unbatched": chases_unbatched,
        "commits_batched": commits_batched,
        "commits_unbatched": commits_unbatched,
        "clusters_equal": clusters_equal,
    })
    assert clusters_equal == 1
    assert chases_batched == chases_unbatched
    assert commits_batched == batches < commits_unbatched == len(stream)
