"""Batch-boundary invariance: any micro-batching ≡ one-at-a-time.

The service's correctness argument leans on one property: however the
micro-batch queue happens to slice the arrival order — load bursts,
queue drains — running :meth:`IncrementalMatcher.ingest_batch` over the
slices produces the same store state *and the same per-event results*
as ingesting every record individually, while committing once per
slice.  ``ingest_batch`` is per-record ingest under one transaction, so
this holds by construction; Hypothesis draws random partitions of a
record stream into consecutive micro-batches and checks it under both
blocking families.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.streams import arrival_stream, duplicate_burst_stream

from serve_helpers import builder, dataset
from store_state import state


def _events():
    return list(arrival_stream(dataset(60, seed=7), seed=3).events)


def _partition(events, cut_points):
    """Split ``events`` into consecutive batches at the cut points."""
    bounds = sorted({cut for cut in cut_points if 0 < cut < len(events)})
    batches = []
    start = 0
    for bound in bounds + [len(events)]:
        if bound > start:
            batches.append(events[start:bound])
            start = bound
    return batches


def _result_log(results):
    return [
        (r.side, r.tid, r.candidates, r.matches, r.merged,
         r.cascade_truncated)
        for r in results
    ]


def _reference(backend="hash"):
    matcher = builder(dataset(60, seed=7), backend=backend).workspace().stream()
    results = matcher.ingest_stream(_events())
    return state(matcher.store), _result_log(results)


BACKENDS = ("hash", "sorted-neighborhood")


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=20, deadline=None)
@given(
    cut_points=st.lists(
        st.integers(min_value=1, max_value=200), max_size=12
    )
)
def test_any_partition_equals_one_at_a_time(backend, cut_points):
    events = _events()
    expected_state, expected_results = _reference(backend)

    matcher = builder(dataset(60, seed=7), backend=backend).workspace().stream()
    results = []
    for batch in _partition(events, cut_points):
        results.extend(matcher.ingest_batch(batch))

    assert _result_log(results) == expected_results
    assert state(matcher.store) == expected_state


def test_one_big_batch_equals_stream(tmp_path):
    """The extreme partition — everything in one batch — agrees too, on
    both store backends (the durable store commits once per batch)."""
    events = list(duplicate_burst_stream(dataset(60, seed=7), seed=3).events)

    reference = builder(dataset(60, seed=7)).workspace().stream()
    reference_results = reference.ingest_stream(events)

    durable = (
        builder(dataset(60, seed=7))
        .persistence("sqlite", str(tmp_path / "batch.db"))
        .workspace()
        .stream()
    )
    durable_results = durable.ingest_batch(events)

    assert _result_log(durable_results) == _result_log(reference_results)
    assert state(durable.store) == state(reference.store)
    durable.store.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_batch_commits_once(tmp_path, backend):
    """One durable transaction per ``ingest_batch`` call, with the
    per-event results and final state of per-record ingest."""
    events = _events()
    expected_state, expected_results = _reference(backend)

    durable = (
        builder(dataset(60, seed=7), backend=backend)
        .persistence("sqlite", str(tmp_path / "batch.db"))
        .workspace()
        .stream()
    )
    counters = durable.metrics.counters
    results = []
    for batch in _partition(events, [len(events) // 2]):
        before = counters.get("store.commits", 0)
        results.extend(durable.ingest_batch(batch))
        assert counters["store.commits"] == before + 1

    assert _result_log(results) == expected_results
    assert state(durable.store) == expected_state
    durable.store.close()
