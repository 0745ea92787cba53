"""The service on a serving-shaped stream: a warm base, then strangers.

20 % of the card holders are enrolled up front, then every billing
transaction arrives, most of it from holders the store has never seen
(``generate_dataset(300, duplicate_fraction=0.15,
namesake_fraction=0.35, seed=13)``).  Driven over the real wire in full
micro-batches, the service must do the work of one-at-a-time ingest —
the same chases, the same clusters — while committing once per batch
where the one-at-a-time control commits once per record.  The
server's own ``serve.match.seconds`` histogram counts every ``/match``.
"""

from __future__ import annotations

from repro.api import Workspace
from repro.core.schema import LEFT
from repro.datagen.generator import generate_dataset
from repro.datagen.streams import arrival_stream

from serve_helpers import ServeClient, builder, event_record, start_server

BATCH = 32
MATCH_REQUESTS = 20


def _serving_workload(size):
    """Warm base + live traffic: the credit records of 20 % of the
    entities, then every billing record."""
    source = generate_dataset(
        size, duplicate_fraction=0.15, namesake_fraction=0.35, seed=13
    )
    events = list(arrival_stream(source).events)
    credit = [event for event in events if event.side == LEFT]
    billing = [event for event in events if event.side != LEFT]
    warm = [event for event in credit if (event.entity % 100) < 20]
    return source, warm + billing


def _count_commits(store):
    """Count the engine's commits on ``store`` by wrapping its
    ``commit`` (the memory store's is a no-op with no counter)."""
    commits = [0]
    commit = store.commit

    def counted():
        commits[0] += 1
        commit()

    store.commit = counted
    return commits


def test_micro_batched_service_amortizes_the_commit():
    source, stream = _serving_workload(300)
    spec = builder(source).serve(port=0, max_batch=BATCH).build()
    thread, host, port = start_server(spec)
    try:
        tenant = thread.server.tenant
        server_commits = _count_commits(tenant.matcher.store)
        client = ServeClient(host, port, timeout=120)
        try:
            batches = 0
            for start in range(0, len(stream), BATCH):
                records = [
                    event_record(event) for event in stream[start : start + BATCH]
                ]
                status, body, _ = client.request(
                    "POST", "/ingest", {"records": records}
                )
                assert status == 200, body
                batches += 1
            # Read the counters now: the /match calls below drive the
            # same compiled plan and would add chases.
            chases_batched = tenant.workspace.plan.stats.enforcements
            commits_batched = server_commits[0]

            left_rows = [
                dict(event.values) for event in stream if event.side == LEFT
            ][:3]
            right_rows = [
                dict(event.values) for event in stream if event.side != LEFT
            ][:3]
            for _ in range(MATCH_REQUESTS):
                status, body, _ = client.request(
                    "POST", "/match", {"left": left_rows, "right": right_rows}
                )
                assert status == 200, body
            status, metrics, _ = client.request("GET", "/metrics")
            assert status == 200
            histograms = metrics["server"]["histograms"]
            assert histograms["serve.match.seconds"]["count"] == MATCH_REQUESTS
        finally:
            client.close()
        server_clusters = tenant.matcher.store.clusters()
    finally:
        thread.stop()

    # The unbatched control: the same events, one commit per record.
    offline = Workspace(spec)
    offline_matcher = offline.stream()
    offline_commits = _count_commits(offline_matcher.store)
    offline_matcher.ingest_stream(stream)

    assert server_clusters == offline_matcher.store.clusters()
    assert chases_batched == offline.plan.stats.enforcements
    assert commits_batched == batches < offline_commits[0] == len(stream)
