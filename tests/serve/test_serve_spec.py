"""The ``serve`` spec section and the store-leak regression suite.

The serve section is *deployment-only*: batch boundaries provably never
change results (``test_batch_invariance.py``), so none of its knobs may
enter the spec fingerprint — tenants are keyed by fingerprint and must
survive a deployment retune.  The leak tests pin the
``Workspace.stream()`` contract the service's lazy tenants rely on:
every rejection path, including failures *after* validation passes,
closes a store the call opened itself.
"""

from __future__ import annotations

import dataclasses
import sqlite3

import pytest

from repro.api.spec import OPTIONS, ResolutionSpec, SpecError
from repro.api.workspace import Workspace
from repro.datagen.streams import arrival_stream

from serve_helpers import (
    ServeClient,
    builder,
    dataset,
    event_record,
    start_server,
)


def _spec_document(**serve):
    document = builder(dataset()).build().to_dict()
    if serve:
        document["serve"] = serve
    else:
        document.pop("serve", None)
    return document


# ----------------------------------------------------------------------
# Section parsing and validation
# ----------------------------------------------------------------------


def test_serve_section_defaults_when_absent():
    spec = ResolutionSpec.from_dict(_spec_document())
    assert spec.serve_host == "127.0.0.1"
    assert spec.serve_port == 8080
    assert spec.serve_max_batch == 16
    assert spec.serve_queue_limit == 1024


def test_builder_serve_round_trips_to_fixed_point():
    spec = (
        builder(dataset())
        .serve(host="0.0.0.0", port=9090, max_batch=64, queue_limit=4096)
        .build()
    )
    document = spec.to_dict()
    assert document["serve"] == {
        "host": "0.0.0.0",
        "port": 9090,
        "max_batch": 64,
        "queue_limit": 4096,
    }
    again = ResolutionSpec.from_dict(document)
    assert again.to_dict() == document


@pytest.mark.parametrize(
    "section, fragment",
    [
        ({"listen": 1}, "unknown"),
        ({"port": 70000}, "port"),
        ({"port": "http"}, "port"),
        ({"port": -1}, "port"),
        ({"host": ""}, "host"),
        ({"max_batch": 0}, "max_batch"),
        ({"max_delay_ms": 10}, "max_delay_ms"),  # removed in 4.0: unknown
        ({"queue_limit": 0}, "queue_limit"),
    ],
)
def test_serve_section_rejects_bad_values(section, fragment):
    with pytest.raises(SpecError) as excinfo:
        ResolutionSpec.from_dict(_spec_document(**section))
    assert any(fragment in error for error in excinfo.value.errors)


def test_port_zero_is_legal_ephemeral():
    spec = ResolutionSpec.from_dict(_spec_document(port=0))
    assert spec.serve_port == 0


# ----------------------------------------------------------------------
# The removed linger: no option, one class constant for the frozen bench
# ----------------------------------------------------------------------


def test_max_delay_is_a_class_constant_not_an_option():
    """``bench/serve.py::_timings`` reads ``spec.serve_max_delay_ms`` as
    the linger it leaves uncompensated; there is none, so it reads 0 —
    and nothing else can see or set the name."""
    spec = ResolutionSpec.from_dict(_spec_document())
    assert ResolutionSpec.serve_max_delay_ms == 0
    assert spec.serve_max_delay_ms == 0
    assert "serve_max_delay_ms" not in {
        field.name for field in dataclasses.fields(ResolutionSpec)
    }
    assert "serve.max_delay_ms" not in OPTIONS
    assert "max_delay_ms" not in spec.to_dict()["serve"]
    with pytest.raises(TypeError):
        dataclasses.replace(spec, serve_max_delay_ms=5)
    with pytest.raises(SpecError) as excinfo:
        builder(dataset()).serve(max_delay_ms=5).build()
    assert "serve: unknown key(s) ['max_delay_ms']" in excinfo.value.errors


# ----------------------------------------------------------------------
# Fingerprint exclusion
# ----------------------------------------------------------------------


def test_serve_knobs_never_enter_the_fingerprint():
    base = ResolutionSpec.from_dict(_spec_document())
    retuned = ResolutionSpec.from_dict(
        _spec_document(
            host="0.0.0.0", port=9999, max_batch=128, queue_limit=9
        )
    )
    assert base.fingerprint() == retuned.fingerprint()
    # ...while a rules change (what matching actually does) still moves it.
    document = _spec_document()
    document["rules"]["top_k"] = 3
    assert ResolutionSpec.from_dict(document).fingerprint() != base.fingerprint()


# ----------------------------------------------------------------------
# Workspace.stream() leak regression (the tenants' lazy-open path)
# ----------------------------------------------------------------------


def _capture_open_store(monkeypatch):
    """Record every store ``Workspace.open_store`` hands out."""
    opened = []
    original = Workspace.open_store

    def capturing(self, path=None):
        store = original(self, path)
        opened.append(store)
        return store

    monkeypatch.setattr(Workspace, "open_store", capturing)
    return opened


def _assert_closed(store):
    with pytest.raises(sqlite3.ProgrammingError):
        store.connection.execute("SELECT 1")


def test_mismatched_fingerprint_rejects_without_leaking(tmp_path, monkeypatch):
    path = str(tmp_path / "stamped.db")
    stamped = builder(dataset()).persistence("sqlite", path).workspace()
    stamped.stream().store.close()

    # Same store file, different rules -> different fingerprint.
    mismatched = (
        builder(dataset())
        .resolution("lexicographic-min")
        .persistence("sqlite", path)
        .workspace()
    )
    opened = _capture_open_store(monkeypatch)
    with pytest.raises(SpecError) as excinfo:
        mismatched.stream()
    assert any("built from spec" in error for error in excinfo.value.errors)
    assert len(opened) == 1
    _assert_closed(opened[0])


def test_failure_after_validation_closes_self_opened_store(
    tmp_path, monkeypatch
):
    """The regression: matcher construction / fingerprint stamping run
    *after* the validation block, and used to leave the connection open
    when they raised."""
    workspace = (
        builder(dataset())
        .persistence("sqlite", str(tmp_path / "fresh.db"))
        .workspace()
    )
    opened = _capture_open_store(monkeypatch)

    def explode(*args, **kwargs):
        raise RuntimeError("post-validation construction failure")

    monkeypatch.setattr(
        "repro.engine.matcher.IncrementalMatcher", explode
    )
    with pytest.raises(RuntimeError, match="post-validation"):
        workspace.stream()
    assert len(opened) == 1
    _assert_closed(opened[0])


def test_caller_owned_store_stays_open_on_rejection(tmp_path):
    """A store the *caller* passed in is the caller's to close — the
    rejection must not close it out from under them."""
    path = str(tmp_path / "mine.db")
    stamped = builder(dataset()).persistence("sqlite", path).workspace()
    stamped.stream().store.close()

    mismatched = (
        builder(dataset())
        .resolution("lexicographic-min")
        .persistence("sqlite", path)
        .workspace()
    )
    mine = Workspace(
        builder(dataset()).persistence("sqlite", path).build()
    ).open_store()
    try:
        with pytest.raises(SpecError):
            mismatched.stream(store=mine)
        mine.connection.execute("SELECT 1")  # still open: ours to close
    finally:
        mine.close(commit=False)


# ----------------------------------------------------------------------
# The same rejection over HTTP: a 400, never a wedged server
# ----------------------------------------------------------------------


def test_reload_onto_mismatched_store_fails_requests_not_server(
    tmp_path, monkeypatch
):
    path = str(tmp_path / "foreign.db")
    stamped = builder(dataset()).persistence("sqlite", path).workspace()
    stamped.stream().store.close()

    opened = _capture_open_store(monkeypatch)
    spec = builder(dataset()).serve(port=0).build()
    thread, host, port = start_server(spec)
    try:
        client = ServeClient(host, port)
        try:
            # Hot-swap to a spec whose durable store was stamped by a
            # different fingerprint.  The reload itself succeeds — the
            # store opens lazily — but every ingest against it must be
            # a clean 400 carrying the spec errors.
            foreign = (
                builder(dataset())
                .resolution("lexicographic-min")
                .persistence("sqlite", path)
                .build()
            )
            status, body, _ = client.request(
                "POST", "/admin/reload", foreign.to_dict()
            )
            assert status == 200 and body["reloaded"] is True

            for _ in range(2):  # still serviceable after the first failure
                status, body, _ = client.request(
                    "POST",
                    "/ingest",
                    {"side": "left", "values": {}},
                )
                assert status == 400
                assert any(
                    "built from spec" in error for error in body["errors"]
                )

            status, body, _ = client.request("GET", "/healthz")
            assert status == 200
            assert body["tenants"][foreign.fingerprint()]["opened"] is False
        finally:
            client.close()
    finally:
        thread.stop()
    # Every rejected lazy open closed its connection before raising.
    assert opened
    for store in opened:
        _assert_closed(store)


def test_reload_with_an_unhashable_enum_value_is_a_400_not_a_500():
    """``policy: ["x"]`` used to crash the validator itself (500)."""
    spec = builder(dataset()).build()
    thread, host, port = start_server(spec)
    try:
        client = ServeClient(host, port)
        try:
            document = spec.to_dict()
            document["resolution"] = {"policy": ["x"]}
            status, body, _ = client.request("POST", "/admin/reload", document)
            assert status == 400
            assert any(
                error.startswith("resolution.policy:") for error in body["errors"]
            )
            status, body, _ = client.request("GET", "/healthz")
            assert status == 200 and body["fingerprint"] == spec.fingerprint()
        finally:
            client.close()
    finally:
        thread.stop()


def test_reload_with_the_removed_linger_key_is_a_400_naming_it():
    spec = builder(dataset()).build()
    thread, host, port = start_server(spec)
    try:
        client = ServeClient(host, port)
        try:
            document = spec.to_dict()
            document["serve"]["max_delay_ms"] = 10
            status, body, _ = client.request("POST", "/admin/reload", document)
            assert status == 400
            assert "serve: unknown key(s) ['max_delay_ms']" in body["errors"]
        finally:
            client.close()
    finally:
        thread.stop()


# ----------------------------------------------------------------------
# Natural batching over HTTP: an idle engine never waits for company
# ----------------------------------------------------------------------


def test_sequential_ingests_on_an_idle_server_are_batches_of_one():
    events = list(arrival_stream(dataset(60, seed=7), seed=3).events)[:12]
    spec = builder(dataset(60, seed=7)).serve(port=0, max_batch=8).build()
    thread, host, port = start_server(spec)
    try:
        client = ServeClient(host, port)
        try:
            for event in events:
                status, _, _ = client.request(
                    "POST", "/ingest", event_record(event)
                )
                assert status == 200
            status, metrics, _ = client.request("GET", "/metrics")
            assert status == 200
        finally:
            client.close()
    finally:
        thread.stop()
    tenant = metrics["tenants"][spec.fingerprint()]
    # Each request was answered before the next was sent, so the drain
    # task never found a second event queued — and never waited for one.
    assert tenant["metrics"]["counters"]["engine.batches"] == len(events)
    assert tenant["processed"] == len(events)
    queue = tenant["queue"]
    assert set(queue) == {"pending", "limit", "max_batch", "wait_seconds"}
    assert (queue["pending"], queue["max_batch"]) == (0, 8)
    wait = queue["wait_seconds"]
    assert wait["count"] == len(events)
    assert 0.0 <= wait["p50"] <= wait["p95"] <= wait["max"]
