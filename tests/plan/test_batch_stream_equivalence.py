"""One workspace, one plan: batch and streaming charge the same counters.

(That the two *agree* — clusters, candidate universe, fingerprint — is
``tests/plan/test_sn_differential.py``'s job, for every blocking family.)
"""

from repro.datagen.streams import duplicate_burst_stream


def test_shared_plan_counters_cover_both_matchers(small_dataset, workspace_for):
    """Both executions charge the same plan's work counters."""
    workspace = workspace_for(small_dataset)
    stats = workspace.plan.stats
    matcher = workspace.stream()
    assert matcher.plan is workspace.plan
    matcher.ingest_stream(duplicate_burst_stream(small_dataset, seed=1).events)
    after_stream = stats.enforcements
    assert after_stream > 0

    workspace.match(small_dataset.credit, small_dataset.billing)
    assert stats.enforcements == after_stream + 1
    assert stats.metric_evaluations > 0
