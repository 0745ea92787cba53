"""Fault suite: backpressure sheds load exactly-once; crashes resume.

Two service guarantees under stress:

* **Backpressure**: past ``queue_limit`` pending events, ``/ingest``
  answers 429 with a ``Retry-After`` header — and the rejected event is
  *not* applied (no loss on accepted events, no double-apply on
  rejected-then-retried ones).  The test makes the saturation
  deterministic by holding the tenant's engine lock from outside, so
  the drain worker is pinned mid-batch while the queue fills.

* **Crash durability**: every acked ingest response means the batch was
  durably committed *before* the future resolved.  An abortive stop
  (``abort=True`` — the store closes without a further commit, queued
  events fail) therefore loses nothing acked; a fresh server over the
  same SQLite file resumes and the final clusters equal an offline
  replay of exactly the acked prefix plus the post-restart traffic.

* **A micro-batch fails as a unit**: when the engine raises on one event
  of a batch (every request riding it gets the error), the store is
  rolled back — nothing of the batch is durable, a later batch's commit
  cannot persist its half-applied records, and re-sending the good
  events succeeds.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.schema import LEFT
from repro.datagen.streams import arrival_stream, duplicate_burst_stream

from serve_helpers import ServeClient, builder, dataset, event_record, start_server
from store_state import state


def _post_in_thread(host, port, record):
    """POST one ingest from a dedicated thread; returns (thread, box)."""
    box = {}

    def worker():
        client = ServeClient(host, port)
        try:
            box["status"], box["body"], box["headers"] = client.request(
                "POST", "/ingest", record
            )
        finally:
            client.close()

    thread = threading.Thread(target=worker)
    thread.start()
    return thread, box


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition not reached before timeout")


def test_saturated_queue_returns_429_without_loss_or_double_apply():
    events = list(arrival_stream(dataset(60, seed=7), seed=3).events)[:4]
    spec = (
        builder(dataset(60, seed=7))
        .serve(port=0, max_batch=1, queue_limit=2)
        .build()
    )
    thread, host, port = start_server(spec)
    try:
        tenant = thread.server.tenant
        # Open the store up front, then pin the engine lock so the
        # drain worker blocks mid-batch and the queue fills on cue.
        assert tenant.matcher is not None
        tenant._lock.acquire()
        try:
            # First event: pulled into a (max_batch=1) batch, stuck on
            # the lock.  Wait on the monotone taken counter — pending
            # == 0 is trivially true before the request even arrives,
            # which would let a later event reach the drain first.
            first_thread, first_box = _post_in_thread(
                host, port, event_record(events[0])
            )
            _wait_for(lambda: tenant.queue.taken == 1)

            # Two more fill the bounded queue to its limit of 2.
            waiting = [
                _post_in_thread(host, port, event_record(event))
                for event in events[1:3]
            ]
            _wait_for(lambda: tenant.queue.pending == 2)

            # The next submit must be shed synchronously: 429 comes
            # back immediately even though the worker is still pinned.
            shed_client = ServeClient(host, port)
            try:
                status, body, headers = shed_client.request(
                    "POST", "/ingest", event_record(events[3])
                )
            finally:
                shed_client.close()
            assert status == 429
            assert "retry-after" in headers
            assert int(headers["retry-after"]) >= 1
            assert body["retry_after"] == int(headers["retry-after"])
            assert body["queue_limit"] == 2
            # A constant: there is no timer left to derive it from.
            assert headers["retry-after"] == "1"
            assert body["error"] == "ingest queue full"
        finally:
            tenant._lock.release()

        # Everything accepted completes exactly once.
        first_thread.join()
        for waiter, _ in waiting:
            waiter.join()
        accepted = [(first_box, events[0])] + [
            (box, event)
            for (_, box), event in zip(waiting, events[1:3])
        ]
        assert all(box["status"] == 200 for box, _ in accepted)

        # The shed event was NOT applied; a retry lands it exactly once.
        retry_client = ServeClient(host, port)
        try:
            status, body, _ = retry_client.request(
                "POST", "/ingest", event_record(events[3])
            )
            _, metrics, _ = retry_client.request("GET", "/metrics")
        finally:
            retry_client.close()
        assert status == 200
        accepted.append(({"status": status, "body": body}, events[3]))
        # The shed is on the server's own books, not only the client's.
        assert metrics["server"]["counters"]["serve.ingest.shed"] == 1
        assert metrics["server"]["counters"]["serve.ingest.shed_records"] == 1

        # seq order is the server's processing order (the two queued
        # events may drain in either order) — replay offline in it.
        numbered = sorted(
            (box["body"]["results"][0]["seq"], event)
            for box, event in accepted
        )
        assert [seq for seq, _ in numbered] == [0, 1, 2, 3]
        processed = [event for _, event in numbered]

        server_state = state(tenant.matcher.store)
    finally:
        thread.stop()

    # Exactly-once, bit for bit: the store equals an offline ingest of
    # the four events once each (a double-applied retry would differ).
    offline = builder(dataset(60, seed=7)).workspace().stream()
    offline.ingest_stream(processed)
    assert server_state == state(offline.store)


def test_bulk_request_is_shed_whole_never_half_applied():
    """A multi-record request that does not fit the queue's remaining
    headroom must 429 with *zero* of its records admitted — otherwise a
    client retry would double-apply the admitted prefix."""
    events = list(arrival_stream(dataset(60, seed=7), seed=3).events)[:6]
    spec = (
        builder(dataset(60, seed=7))
        .serve(port=0, max_batch=1, queue_limit=2)
        .build()
    )
    thread, host, port = start_server(spec)
    try:
        tenant = thread.server.tenant
        assert tenant.matcher is not None
        tenant._lock.acquire()
        try:
            first_thread, first_box = _post_in_thread(
                host, port, event_record(events[0])
            )
            # taken == 1: the drain holds exactly the first event
            # (pending == 0 would also be true before it ever arrived).
            _wait_for(lambda: tenant.queue.taken == 1)
            # One slot of two taken; a 1-record bulk still fits...
            waiting_thread, waiting_box = _post_in_thread(
                host,
                port,
                {"records": [event_record(events[1])]},
            )
            _wait_for(lambda: tenant.queue.pending == 1)
            # ...but a 2-record bulk against 1 free slot is shed whole.
            shed_client = ServeClient(host, port)
            try:
                status, body, headers = shed_client.request(
                    "POST",
                    "/ingest",
                    {"records": [event_record(e) for e in events[2:4]]},
                )
            finally:
                shed_client.close()
            assert status == 429
            assert "retry-after" in headers
            assert tenant.queue.pending == 1  # nothing admitted
            counters = thread.server.metrics.counters
            assert counters["serve.ingest.shed"] == 1
            assert counters["serve.ingest.shed_records"] == 2
        finally:
            tenant._lock.release()
        first_thread.join()
        waiting_thread.join()
        assert first_box["status"] == 200
        assert waiting_box["status"] == 200

        # The retry applies the shed pair exactly once.
        retry_client = ServeClient(host, port)
        try:
            status, body, _ = retry_client.request(
                "POST",
                "/ingest",
                {"records": [event_record(e) for e in events[2:4]]},
            )
        finally:
            retry_client.close()
        assert status == 200
        server_state = state(tenant.matcher.store)
    finally:
        thread.stop()

    offline = builder(dataset(60, seed=7)).workspace().stream()
    offline.ingest_stream(events[:4])
    assert server_state == state(offline.store)


def test_abortive_stop_fails_queued_ingests_with_503():
    events = list(arrival_stream(dataset(60, seed=7), seed=3).events)[:3]
    spec = (
        builder(dataset(60, seed=7))
        .serve(port=0, max_batch=1, queue_limit=8)
        .build()
    )
    thread, host, port = start_server(spec)
    stopped = False
    try:
        tenant = thread.server.tenant
        assert tenant.matcher is not None
        tenant._lock.acquire()
        try:
            in_flight_thread, in_flight_box = _post_in_thread(
                host, port, event_record(events[0])
            )
            # Wait for the drain to *take* the first event — not for
            # pending == 0, which also holds before it ever arrived.
            _wait_for(lambda: tenant.queue.taken == 1)
            queued = [
                _post_in_thread(host, port, event_record(event))
                for event in events[1:]
            ]
            _wait_for(lambda: tenant.queue.pending == 2)

            # Abort while two events sit in the queue.  stop() must run
            # from another thread: it awaits the drain task, which is
            # blocked on the lock we hold until the finally releases it.
            stopper = threading.Thread(
                target=thread.stop, kwargs={"abort": True}
            )
            stopper.start()
            stopped = True
            # Release the engine only once the abort has swept the queue,
            # or the drain may take a queued event before it is failed.
            _wait_for(lambda: tenant.queue.pending == 0)
        finally:
            tenant._lock.release()
        stopper.join()

        # The in-flight batch finished (its commit already ran); the
        # queued ones were failed with TenantClosed -> 503, not lost in
        # silence and never applied.
        in_flight_thread.join()
        assert in_flight_box["status"] == 200
        for waiter, box in queued:
            waiter.join()
            assert box["status"] == 503
    finally:
        if not stopped:
            thread.stop()


def test_kill_and_restart_resumes_to_same_clusters(tmp_path):
    events = list(duplicate_burst_stream(dataset(120), seed=5).events)
    half = len(events) // 2
    spec = (
        builder(dataset(120))
        .persistence("sqlite", str(tmp_path / "crash.db"))
        .serve(port=0, max_batch=4)
        .build()
    )

    def bulk_ingest(host, port, stream):
        client = ServeClient(host, port)
        seqs = []
        try:
            for start in range(0, len(stream), 8):
                status, body, _ = client.request(
                    "POST",
                    "/ingest",
                    {
                        "records": [
                            event_record(event)
                            for event in stream[start : start + 8]
                        ]
                    },
                )
                assert status == 200
                seqs.extend(result["seq"] for result in body["results"])
        finally:
            client.close()
        return seqs

    # First life: ingest the acked prefix, then die without the
    # graceful final commit (every acked batch already committed).
    thread, host, port = start_server(spec)
    try:
        seqs = bulk_ingest(host, port, events[:half])
        assert sorted(seqs) == list(range(half))
    finally:
        thread.stop(abort=True)

    # Second life: same database file, rest of the stream.
    thread, host, port = start_server(spec)
    try:
        seqs = bulk_ingest(host, port, events[half:])
        assert sorted(seqs) == list(range(len(events) - half))
        resumed_state = state(thread.server.tenant.matcher.store)
    finally:
        thread.stop()

    # The crash cost nothing: final clusters equal one uninterrupted
    # offline run over the full stream.
    offline = builder(dataset(120)).workspace().stream()
    offline.ingest_stream(events)
    assert resumed_state == state(offline.store)


def test_failed_micro_batch_is_rolled_back_as_a_unit(tmp_path):
    events = list(arrival_stream(dataset(60, seed=7), seed=3).events)[:16]
    failed = events[8:12]

    def reopen():
        return (
            builder(dataset(60, seed=7))
            .persistence("sqlite", str(tmp_path / "rollback.db"))
            .workspace()
            .stream()
        )

    matcher = reopen()
    matcher.ingest_batch(events[:8])
    # The last event re-uses a live tid: the engine raises only after the
    # four before it were added and indexed.
    with pytest.raises(ValueError):
        matcher.ingest_batch(failed + [events[0]])
    # The next good batch commits — and must not commit the leftovers.
    matcher.ingest_batch(events[12:])
    matcher.store.close()

    matcher = reopen()
    for event in failed:
        assert event.tid not in matcher.store.relation(event.side)
    matcher.ingest_batch(failed)
    resumed_state = state(matcher.store)
    matcher.store.close()

    # As if the failed batch had never been sent.
    offline = builder(dataset(60, seed=7)).workspace().stream()
    offline.ingest_stream(events[:8] + events[12:] + failed)
    assert resumed_state == state(offline.store)


@pytest.mark.parametrize("tid", [True, 2**63, -(2**63) - 1, "7"])
def test_an_ingest_tid_sqlite_cannot_hold_is_a_400_naming_it(tmp_path, tid):
    """``POST /ingest`` refuses a ``bool`` tid, an int outside SQLite's
    signed 64 bits or a non-integer with a 400 naming ``records[i].tid``,
    before any record of the request is queued; the store takes the
    request once the tid is mended."""
    spec = builder(dataset()).persistence("sqlite", str(tmp_path / "s.db")).build()
    thread, host, port = start_server(spec)
    try:
        client = ServeClient(host, port)
        try:
            good, bad = (
                event_record(event)
                for event in arrival_stream(dataset(), seed=5).events[:2]
            )
            status, body, _ = client.request(
                "POST", "/ingest", {"records": [good, dict(bad, tid=tid)]}
            )
            assert status == 400
            assert body["error"].startswith("records[1].tid: tid ")
            status, body, _ = client.request("POST", "/ingest", {"records": [good, bad]})
            assert status == 200
            assert [result["tid"] for result in body["results"]] == [
                good["tid"], bad["tid"]
            ]
        finally:
            client.close()
    finally:
        thread.stop()


def _left_record(tid, **values):
    record = event_record(
        next(e for e in arrival_stream(dataset(60, 11), seed=5).events if e.side == LEFT)
    )
    return dict(record, tid=tid, values=dict(record["values"], **values))


@pytest.mark.parametrize(
    "refused, error",
    [
        (
            {"side": "left", "values": {"NOPE": "y"}},
            "records[1].values: attributes ['NOPE'] not in schema 'credit'",
        ),
        (
            _left_record(900, FN="Another"),
            "records[1].tid: tuple id 900 appears twice in this request",
        ),
    ],
    ids=["unknown attribute", "repeated tid"],
)
def test_a_refused_ingest_request_stores_none_of_its_records(tmp_path, refused, error):
    """``POST /ingest`` refuses a record naming an attribute outside its
    side's schema, or a ``(side, tid)`` the request already named, with a
    400 naming ``records[i]`` before any record of the request is queued:
    a memory tenant and a SQLite tenant store nothing of it, and take the
    good record alone afterwards, ending with the same rows."""
    good = _left_record(900)
    states = []
    for persistence in ("memory", "sqlite"):
        spec_builder = builder(dataset(60, 11))
        if persistence == "sqlite":
            spec_builder.persistence("sqlite", str(tmp_path / "s.db"))
        thread, host, port = start_server(spec_builder.build())
        try:
            client = ServeClient(host, port)
            try:
                status, body, _ = client.request(
                    "POST", "/ingest", {"records": [good, refused]}
                )
                assert (status, body["error"]) == (400, error)
                assert 900 not in thread.server.tenant.matcher.store.relation(LEFT)
                status, body, _ = client.request("POST", "/ingest", {"records": [good]})
                assert status == 200
                assert [result["tid"] for result in body["results"]] == [900]
            finally:
                client.close()
            store = thread.server.tenant.matcher.store
            states.append(state(store))
            assert list(store.relation(LEFT).tids()) == [900]
        finally:
            thread.stop()
    memory, sqlite = states
    assert memory == sqlite
