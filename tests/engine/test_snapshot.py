"""Snapshot → restore → ingest must equal a cold run over the full stream."""

from __future__ import annotations

import json

import pytest

from repro.datagen.streams import duplicate_burst_stream
from repro.engine import (
    SNAPSHOT_VERSION,
    load_store,
    save_store,
    store_from_dict,
    store_to_dict,
)


@pytest.fixture
def stream(small_dataset):
    return duplicate_burst_stream(small_dataset, seed=13)


def _state(store):
    """Everything observable about a store, for equality assertions."""
    return {
        "left": {row.tid: row.values() for row in store.left},
        "right": {row.tid: row.values() for row in store.right},
        "clusters": sorted(
            (sorted(cluster.left_tids), sorted(cluster.right_tids))
            for cluster in store.clusters()
        ),
        "comparisons": store.comparisons,
        "merges": store.merges,
    }


def test_roundtrip_preserves_state(small_dataset, workspace_for, stream, tmp_path):
    matcher = workspace_for(small_dataset).stream()
    matcher.ingest_stream(stream.events[:100])
    path = tmp_path / "store.json"
    save_store(matcher.store, path)
    restored = load_store(path)
    assert _state(restored) == _state(matcher.store)
    # Arrival values made the trip too (consensus repairs depend on them).
    for row in matcher.store.right:
        assert restored.arrival_values(1, row.tid) == \
            matcher.store.arrival_values(1, row.tid)


def test_restore_then_ingest_equals_cold_run(
    small_dataset, workspace_for, stream, tmp_path
):
    """Pause/resume anywhere in the stream without changing the outcome."""
    workspace = workspace_for(small_dataset)
    events = stream.events[:200]
    cut = 120

    cold = workspace.stream()
    cold.ingest_stream(events)

    first_half = workspace.stream()
    first_half.ingest_stream(events[:cut])
    path = tmp_path / "checkpoint.json"
    save_store(first_half.store, path)

    resumed = workspace.stream(store=load_store(path))
    resumed.ingest_stream(events[cut:])
    assert _state(resumed.store) == _state(cold.store)


def test_snapshot_is_plain_json(small_dataset, workspace_for, stream, tmp_path):
    matcher = workspace_for(small_dataset).stream()
    matcher.ingest_stream(stream.events[:20])
    path = tmp_path / "store.json"
    save_store(matcher.store, path)
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["version"] == SNAPSHOT_VERSION
    assert data["schema"]["left"]["name"] == small_dataset.pair.left.name
    assert data["counters"]["comparisons"] == matcher.store.comparisons


def test_version_mismatch_rejected(small_dataset, workspace_for):
    matcher = workspace_for(small_dataset).stream()
    data = store_to_dict(matcher.store)
    data["version"] = 99
    with pytest.raises(ValueError, match="snapshot version"):
        store_from_dict(data)
