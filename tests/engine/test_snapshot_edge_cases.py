"""Persistence edge cases every backend must honor, parametrized over both.

Each case pins a piece of state that is easy to drop on the floor when
serializing: the cost counters, arrival values that differ from repaired
consensus values, and singleton clusters.  ``roundtrip`` closes over the
backend: the memory store round-trips through a JSON snapshot file, the
SQLite store through close-and-reopen — either way the reloaded store
must be observably identical.
"""

from __future__ import annotations

import pytest

from repro.core.schema import LEFT, RIGHT
from repro.datagen.generator import generate_dataset
from repro.datagen.streams import duplicate_burst_stream
from repro.engine import SQLiteMatchStore, load_store, save_store
from repro.engine.snapshot import store_to_dict


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(100, seed=23)


@pytest.fixture(params=["memory", "sqlite"])
def backend(request, dataset, workspace_for, tmp_path):
    """(matcher over a fresh store, roundtrip) for one backend."""
    if request.param == "memory":
        matcher = workspace_for(dataset).stream()

        def roundtrip(store):
            path = tmp_path / "snapshot.json"
            save_store(store, path)
            return load_store(path)

    else:
        matcher = workspace_for(
            dataset,
            persistence={"backend": "sqlite", "path": str(tmp_path / "store.db")},
        ).stream()

        def roundtrip(store):
            store.close()
            return SQLiteMatchStore(store.path)

    return matcher, roundtrip


def test_counters_round_trip_exactly(dataset, backend):
    matcher, roundtrip = backend
    store = matcher.store
    matcher.ingest_stream(duplicate_burst_stream(dataset, seed=3).events[:60])
    assert store.comparisons > 0 and store.merges > 0
    reloaded = roundtrip(store)
    assert reloaded.comparisons == matcher.store.comparisons
    assert reloaded.merges == matcher.store.merges


def test_arrival_values_survive_consensus_repair(dataset, backend):
    """After a repair rewrites current values, *both* value sets persist
    and probing still derives keys from the arrival ones."""
    matcher, roundtrip = backend
    store = matcher.store
    matcher.ingest_stream(duplicate_burst_stream(dataset, seed=3).events[:80])
    repaired = [
        (side, row.tid)
        for side, relation in ((LEFT, store.left), (RIGHT, store.right))
        for row in relation
        if row.values() != store.arrival_values(side, row.tid)
    ]
    assert repaired, "expected at least one consensus repair in this stream"
    expected = {
        (side, tid): (
            store.arrival_values(side, tid),
            store.relation(side)[tid].values(),
            store.neighbors(side, tid),
        )
        for side, tid in repaired
    }
    reloaded = roundtrip(store)
    for (side, tid), (arrival, current, neighbors) in expected.items():
        assert reloaded.arrival_values(side, tid) == arrival
        assert reloaded.relation(side)[tid].values() == current
        # The store still probes by arrival values after the trip.
        assert reloaded.neighbors(side, tid) == neighbors


def test_singleton_clusters_round_trip(backend):
    matcher, roundtrip = backend
    store = matcher.store
    # Two records that match nothing: both stay singleton clusters.
    left_tid = store.add(LEFT, {"FN": "Zebulon", "LN": "Quixote"})
    right_tid = store.add(RIGHT, {"FN": "Aurelia", "LN": "Xanthos"})
    store.comparisons += 1
    original = store_to_dict(store)
    reloaded = roundtrip(store)
    assert reloaded.clusters() == []
    singles = reloaded.clusters(include_singletons=True)
    assert len(singles) == 2
    assert reloaded.cluster_of(LEFT, left_tid).left_tids == {left_tid}
    assert reloaded.cluster_of(RIGHT, right_tid).right_tids == {right_tid}
    # And the canonical snapshot document agrees with the original's.
    assert store_to_dict(reloaded) == original
