"""``save_store``: any store, written to a new SQLite store file.

A saved store reopened with ``SQLiteMatchStore(path)`` must be
observably identical to the store it was saved from, and resuming a
stream on it must end where the uninterrupted stream does.  The edge
cases pin state that is easy to drop on the floor: the cost counters,
arrival values that differ from repaired consensus values, and
singleton clusters.
"""

from __future__ import annotations

import pytest

from repro.core.schema import LEFT, RIGHT
from repro.datagen.generator import generate_dataset
from repro.datagen.streams import duplicate_burst_stream
from repro.engine import SQLiteMatchStore, save_store

from store_state import state

BLOCKING = {
    "hash": {"backend": "hash"},
    "sorted-neighborhood": {"backend": "sorted-neighborhood", "window": 10},
}


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(100, seed=23)


@pytest.fixture(params=["memory-saved", "sqlite-saved", "sqlite-reopened"])
def backend(request, dataset, workspace_for, tmp_path):
    """(matcher over a fresh store, roundtrip) for one way to disk: a
    memory or SQLite store written by ``save_store``, or a SQLite store
    closed and reopened in place."""
    if request.param == "memory-saved":
        matcher = workspace_for(dataset).stream()
    else:
        matcher = workspace_for(
            dataset,
            persistence={"backend": "sqlite", "path": str(tmp_path / "store.db")},
        ).stream()

    def roundtrip(store):
        if request.param == "sqlite-reopened":
            store.close()
            return SQLiteMatchStore(store.path)
        save_store(store, tmp_path / "saved.db")
        return SQLiteMatchStore(tmp_path / "saved.db")

    yield matcher, roundtrip
    matcher.store.close(commit=False)


def test_a_saved_store_reopens_with_the_same_state(dataset, backend):
    matcher, roundtrip = backend
    matcher.ingest_stream(duplicate_burst_stream(dataset, seed=3).events[:100])
    expected = state(matcher.store)
    reloaded = roundtrip(matcher.store)
    assert state(reloaded) == expected
    reloaded.close(commit=False)


@pytest.mark.parametrize("blocking", sorted(BLOCKING))
def test_restore_then_ingest_equals_cold_run(
    small_dataset, workspace_for, blocking, tmp_path
):
    """Save a memory store mid-stream, reopen the file, finish the stream
    on it: same rows, clusters, counters and fingerprint as the stream
    that was never interrupted."""
    workspace = workspace_for(small_dataset, blocking=BLOCKING[blocking])
    events = duplicate_burst_stream(small_dataset, seed=13).events[:200]
    cut = 120

    cold = workspace.stream()
    cold.ingest_stream(events)

    first_half = workspace.stream()
    first_half.ingest_stream(events[:cut])
    path = tmp_path / "checkpoint.db"
    save_store(first_half.store, path)

    resumed = workspace.stream(store=SQLiteMatchStore(path))
    resumed.ingest_stream(events[cut:])
    assert state(resumed.store) == state(cold.store)
    assert resumed.store.spec_fingerprint == workspace.fingerprint
    resumed.store.close()


def test_counters_round_trip_exactly(dataset, backend):
    matcher, roundtrip = backend
    store = matcher.store
    matcher.ingest_stream(duplicate_burst_stream(dataset, seed=3).events[:60])
    assert store.comparisons > 0 and store.merges > 0
    expected = (store.comparisons, store.merges)
    reloaded = roundtrip(store)
    assert (reloaded.comparisons, reloaded.merges) == expected
    reloaded.close(commit=False)


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
    reloaded.close(commit=False)


def test_singleton_clusters_round_trip(backend):
    matcher, roundtrip = backend
    store = matcher.store
    # Two records that match nothing: both stay singleton clusters.
    left_tid = store.add(LEFT, {"FN": "Zebulon", "LN": "Quixote"})
    right_tid = store.add(RIGHT, {"FN": "Aurelia", "LN": "Xanthos"})
    store.comparisons += 1
    expected = state(store)
    reloaded = roundtrip(store)
    assert reloaded.clusters() == []
    singles = reloaded.clusters(include_singletons=True)
    assert len(singles) == 2
    assert reloaded.cluster_of(LEFT, left_tid).left_tids == {left_tid}
    assert reloaded.cluster_of(RIGHT, right_tid).right_tids == {right_tid}
    assert state(reloaded) == expected
    reloaded.close(commit=False)


def test_an_existing_path_is_refused_untouched(dataset, workspace_for, tmp_path):
    matcher = workspace_for(dataset).stream()
    existing = tmp_path / "exists.db"
    existing.write_text("precious")
    with pytest.raises(ValueError, match="refusing to overwrite"):
        save_store(matcher.store, existing)
    assert existing.read_text() == "precious"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["exists.db"]


def test_a_failed_save_leaves_no_file(dataset, workspace_for, tmp_path):
    """A store whose values cannot be written (here: not JSON) fails at
    the copy's one commit; neither the path nor its scratch file is left
    behind, and the same path takes the next save."""
    matcher = workspace_for(dataset).stream()
    store = matcher.store
    tid = store.add(LEFT, {"FN": "Mark", "LN": "Clifford"})
    store.repair(LEFT, tid, {"LN": object()})
    path = tmp_path / "saved.db"
    with pytest.raises(TypeError, match="JSON serializable"):
        save_store(store, path)
    assert list(tmp_path.iterdir()) == []
    store.repair(LEFT, tid, {"LN": "Clifford"})
    save_store(store, path)
    with SQLiteMatchStore(path) as saved:
        assert saved.left[tid]["LN"] == "Clifford"
