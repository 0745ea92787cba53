"""Acceptance criteria: the stream recovers the truth at sublinear cost.

* Streaming ingest of a generated duplicate-burst workload resolves the
  entities the data was generated with.  (That it reaches the *batch*
  run's clusters is ``tests/plan/test_sn_differential.py``'s job.)
* Ingesting one record into a 10k-record warm store performs at least
  10× fewer pair comparisons than re-running the batch pipeline,
  measured through the store's comparison counter.
"""

from __future__ import annotations

from repro.core.schema import LEFT, RIGHT
from repro.datagen.generator import generate_dataset
from repro.datagen.streams import duplicate_burst_stream


def test_streaming_clusters_recover_truth(small_dataset, workspace_for):
    """Sanity: the streamed clusters actually resolve entities well."""
    matcher = workspace_for(small_dataset).stream()
    matcher.ingest_stream(duplicate_burst_stream(small_dataset, seed=1).events)
    implied = set()
    for cluster in matcher.store.clusters():
        implied |= cluster.implied_pairs()
    truth = set(small_dataset.true_matches)
    true_positives = len(implied & truth)
    precision = true_positives / len(implied)
    recall = true_positives / len(truth)
    assert precision > 0.95
    assert recall > 0.5


def test_single_ingest_ten_times_fewer_comparisons(workspace_for):
    """One ingest into a 10k-record warm store beats a batch re-run 10×."""
    dataset = generate_dataset(10_000, seed=7)
    workspace = workspace_for(dataset)
    matcher = workspace.stream()
    store = matcher.store
    held_out = dataset.billing.rows()[-1]
    for row in dataset.credit.rows():
        store.add(LEFT, row.values(), tid=row.tid)
    for row in dataset.billing.rows():
        if row.tid != held_out.tid:
            store.add(RIGHT, row.values(), tid=row.tid)

    before = store.comparisons
    result = matcher.ingest(RIGHT, held_out.values())
    ingest_comparisons = store.comparisons - before
    assert ingest_comparisons == len(result.candidates)

    batch_comparisons = len(
        workspace.candidates(dataset.credit, dataset.billing)
    )
    assert ingest_comparisons > 0
    assert ingest_comparisons * 10 <= batch_comparisons


def test_stream_total_comparisons_stay_sublinear(small_dataset, workspace_for):
    """The whole stream costs far less than re-running batch per arrival."""
    workspace = workspace_for(small_dataset)
    matcher = workspace.stream()
    workload = duplicate_burst_stream(small_dataset, seed=2)
    matcher.ingest_stream(workload.events)
    batch_candidates = len(
        workspace.candidates(small_dataset.credit, small_dataset.billing)
    )
    # Re-running the batch pipeline on every arrival would cost about
    # len(events) * batch_candidates comparisons; the stream's total must
    # be orders of magnitude below that (and of the same order as ONE
    # batch run).
    assert matcher.store.comparisons < 10 * batch_candidates
    assert matcher.store.comparisons < len(workload.events) * batch_candidates / 10
