"""The service differential suite: HTTP ≡ offline, bit for bit.

Concurrent clients ingest every stream scenario over the real wire
protocol (stdlib ``http.client`` against the asyncio server) and the
final store state — records, clusters, consensus values,
comparisons/merges counters — must equal an offline
``Workspace.stream()`` replay *one record at a time*, for both store
backends.  The server assigns each ingest a monotonically increasing
``seq`` in processing order; replaying events in seq order makes the
comparison exact regardless of client interleaving, and the
batch-boundary invariance property (``test_batch_invariance.py``)
bridges the server's micro-batches to the one-at-a-time replay.
"""

from __future__ import annotations

import threading

import pytest

from repro.datagen.streams import (
    arrival_stream,
    duplicate_burst_stream,
    late_duplicate_stream,
)
from repro.engine import SQLiteMatchStore

from serve_helpers import (
    ServeClient,
    builder,
    dataset,
    event_record,
    start_server,
)
from store_state import state

SCENARIOS = [duplicate_burst_stream, arrival_stream, late_duplicate_stream]
SCENARIO_IDS = ["duplicate-burst", "arrival", "late-duplicate"]
BACKENDS = ["memory", "sqlite"]

CLIENTS = 4


def _spec(tmp_path, backend):
    spec_builder = builder(dataset()).serve(port=0, max_batch=8)
    if backend == "sqlite":
        spec_builder = spec_builder.persistence(
            "sqlite", str(tmp_path / "serve.db")
        )
    return spec_builder.build()


def _ingest_concurrently(host, port, events):
    """``CLIENTS`` threads ingest a partition each; (seq, event, result)."""
    outcomes = []
    outcome_lock = threading.Lock()
    failures = []

    def client_worker(worker_events):
        client = ServeClient(host, port)
        try:
            for event in worker_events:
                status, body, _ = client.request(
                    "POST", "/ingest", event_record(event)
                )
                if status != 200:
                    failures.append((status, body))
                    return
                (result,) = body["results"]
                with outcome_lock:
                    outcomes.append((result["seq"], event, result))
        finally:
            client.close()

    threads = [
        threading.Thread(target=client_worker, args=(events[index::CLIENTS],))
        for index in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, f"ingest failed: {failures[:3]}"
    return outcomes


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("make_stream", SCENARIOS, ids=SCENARIO_IDS)
def test_http_ingest_equals_offline_stream(make_stream, backend, tmp_path):
    events = list(make_stream(dataset(), seed=5).events)
    spec = _spec(tmp_path, backend)
    thread, host, port = start_server(spec)
    try:
        outcomes = _ingest_concurrently(host, port, events)
        assert len(outcomes) == len(events)
        seqs = sorted(seq for seq, _, _ in outcomes)
        assert seqs == list(range(len(events)))

        server_store = thread.server.tenant.matcher.store
        server_state = state(server_store)
        server_fingerprint = server_store.spec_fingerprint
        # /metrics carries the tenant's engine counters: every chase the
        # engine ran, by kind, and the ones it skipped, by reason.
        client = ServeClient(host, port)
        try:
            status, metrics, _ = client.request("GET", "/metrics")
        finally:
            client.close()
        assert status == 200
        (tenant,) = metrics["tenants"].values()
        counters = tenant["metrics"]["counters"]
        assert tenant["plan"]["enforcements"] == sum(
            counters.get(f"engine.chases.{kind}", 0)
            for kind in ("arrival", "current", "reexamination")
        )
        assert counters["engine.chases.arrival"] > 0
        assert any(name.startswith("engine.chases.skipped.") for name in counters)
    finally:
        thread.stop()

    # Offline replay in the server's processing order, one at a time.
    outcomes.sort(key=lambda item: item[0])
    offline = builder(dataset()).workspace().stream()
    offline_results = offline.ingest_stream(
        [event for _, event, _ in outcomes]
    )

    assert server_state == state(offline.store)
    assert server_fingerprint == spec.fingerprint()

    # Per-event results agree too: the wire response at seq k is the
    # offline result of ingesting the k-th processed record.
    for (_, _, wire), result in zip(outcomes, offline_results):
        assert wire["tid"] == result.tid
        assert wire["candidates"] == len(result.candidates)
        assert wire["matches"] == [list(pair) for pair in result.matches]
        assert wire["merged"] == result.merged

    if backend == "sqlite":
        # The graceful stop committed and closed; a cold reopen of the
        # database sees the identical state (restart durability).
        reopened = SQLiteMatchStore(tmp_path / "serve.db")
        try:
            assert state(reopened) == server_state
            assert reopened.spec_fingerprint == spec.fingerprint()
        finally:
            reopened.close(commit=False)


def _chase_counters(counters):
    return {name: n for name, n in counters.items() if name.startswith("engine.chases.")}


def test_batched_service_commits_once_per_batch(tmp_path):
    """What the micro-batch queue amortises is the commit: bulk posts
    through the service commit once per engine batch, far fewer times
    than there are records, and end in the state — having run exactly the
    chases — of one-at-a-time offline ingest of the same events."""
    events = list(arrival_stream(dataset(), seed=5).events)
    spec = (
        builder(dataset())
        .serve(port=0, max_batch=32)
        .persistence("sqlite", str(tmp_path / "serve.db"))
        .build()
    )
    thread, host, port = start_server(spec)
    try:
        # Open the store (creating it commits once) before any traffic.
        thread.server.tenant.matcher
        metrics = thread.server.tenant.workspace.metrics
        created = metrics.counters["store.commits"]
        client = ServeClient(host, port)
        try:
            # Bulk posts fill whole micro-batches (the steady-traffic
            # shape); each record still gets its own seq and result.
            for start in range(0, len(events), 32):
                status, _, _ = client.request(
                    "POST",
                    "/ingest",
                    {"records": [event_record(event) for event in events[start:start + 32]]},
                )
                assert status == 200
        finally:
            client.close()
        counters = dict(metrics.counters)
        server_state = state(thread.server.tenant.matcher.store)
    finally:
        thread.stop()

    offline = builder(dataset()).workspace()
    offline_matcher = offline.stream()
    offline_matcher.ingest_stream(events)
    commits = counters["store.commits"] - created
    assert counters["engine.batches"] == commits < len(events)
    assert server_state == state(offline_matcher.store)
    assert _chase_counters(counters) == _chase_counters(offline.metrics.counters)
