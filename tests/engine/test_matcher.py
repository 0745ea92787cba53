"""IncrementalMatcher: streaming ingest, warm starts, and edge cases."""

from __future__ import annotations

import pytest

import repro.engine.matcher as matcher_module
from repro.core.schema import LEFT, RIGHT
from repro.datagen.generator import generate_dataset
from repro.datagen.streams import arrival_stream
from repro.engine import IncrementalMatcher, MatchStore
from repro.plan.compile import compile_plan


@pytest.fixture
def workspace(workspace_for, sigma, target):
    return workspace_for(target, sigma)


@pytest.fixture
def matcher(workspace):
    return workspace.stream()


def _ingest_fig1(matcher, fig1):
    _, credit, billing = fig1
    for row in credit:
        matcher.ingest(LEFT, row.values(), tid=row.tid)
    results = []
    for row in billing:
        results.append(matcher.ingest(RIGHT, row.values(), tid=row.tid))
    return results


class TestStreamingFig1:
    def test_billing_tuples_join_t1_cluster(self, matcher, fig1):
        """The paper's Fig. 1: all four billing tuples describe Mark.

        Enforcement matches them one by one as they arrive — including t4
        (tid 1), which no rule matches directly until ϕ2 has repaired the
        address (Example 2.2's dynamic-semantics cascade).
        """
        _ingest_fig1(matcher, fig1)
        cluster = matcher.store.cluster_of(LEFT, 0)
        assert cluster.left_tids == frozenset({0})
        assert cluster.right_tids == frozenset({0, 1, 2, 3})
        # David Smith (credit tid 1) stays a singleton.
        other = matcher.store.cluster_of(LEFT, 1)
        assert other.size == 1

    def test_matches_batch_enforcement(self, workspace, matcher, fig1):
        """Streaming reaches the batch run's clusters on Fig. 1."""
        _, credit, billing = fig1
        _ingest_fig1(matcher, fig1)
        candidates = [
            (left_tid, right_tid)
            for left_tid in credit.tids()
            for right_tid in billing.tids()
        ]
        report = workspace.match(credit, billing, candidates=candidates)
        assert matcher.store.clusters() == list(report.clusters)


    @pytest.mark.parametrize("offset", [2**31, -(2**31) - 5, 2**63 - 10])
    def test_tids_beyond_a_c_int_stream_as_small_ones_do(self, workspace, fig1, offset):
        """A tid outside a C int (an external record id, say) streams like
        any other, up to SQLite's 64-bit bound: a delta is chased over the
        probe's own list of partner tids, and the clusters are the
        small-tid stream's, shifted."""
        _, credit, billing = fig1

        def clusters(shift):
            matcher = workspace.stream()
            for side, relation in ((LEFT, credit), (RIGHT, billing)):
                for row in relation:
                    matcher.ingest(side, row.values(), tid=row.tid + shift)
            return [
                (sorted(cluster.left_tids), sorted(cluster.right_tids))
                for cluster in matcher.store.clusters()
            ]

        small = clusters(0)
        assert small
        assert clusters(offset) == [
            ([tid + offset for tid in lefts], [tid + offset for tid in rights])
            for lefts, rights in small
        ]


class TestEdgeCases:
    def test_a_keys_only_plan_streams_its_keys(
        self, workspace_for, workspace, target, fig1
    ):
        """A plan compiled from keys alone chases them as MDs (Σ_Γ), each
        rule named after its key, and a stream over it ends in the batch
        match's clusters."""
        keys_only = workspace_for(target, sigma=[], rcks=workspace.deduce())
        plan = keys_only.plan
        assert plan.sigma == tuple(key.to_md() for key in plan.rcks)
        assert [rule.name for rule in plan.rules] == [key.name for key in plan.keys]
        matcher = keys_only.stream()
        _ingest_fig1(matcher, fig1)
        _, credit, billing = fig1
        report = keys_only.match(credit, billing)
        assert report.matches
        assert {
            pair
            for cluster in matcher.store.clusters()
            for pair in cluster.implied_pairs()
        } == set(report.matches)

    def test_needs_target(self, workspace, target):
        """A chase-only plan (no target) has no matches to read off."""
        chase_only = compile_plan(workspace.plan.sigma)
        with pytest.raises(ValueError, match="without a target"):
            IncrementalMatcher(chase_only, MatchStore(target, workspace.plan.blocking))

    def test_store_target_mismatch(self, workspace, workspace_for, ext_target):
        foreign = workspace_for(ext_target).stream().store
        with pytest.raises(ValueError, match="different target"):
            IncrementalMatcher(workspace.plan, foreign)

    def test_empty_store_bootstrap(self, matcher):
        """Warm-starting from an empty batch is a no-op, not an error."""
        assert matcher.ingest_batch([]) == []
        assert matcher.store.clusters() == []
        # The store still works afterwards.
        ingest = matcher.ingest(LEFT, {"FN": "Mark", "LN": "Clifford"})
        assert matcher.store.cluster_of(LEFT, ingest.tid).size == 1

    def test_reingesting_identical_record_is_idempotent(self, matcher, fig1):
        """A replayed record joins the existing cluster, creating none."""
        _, credit, billing = fig1
        matcher.ingest(LEFT, credit[0].values())
        first = matcher.ingest(RIGHT, billing[3].values())
        assert matcher.store.same(("L", 0), ("R", first.tid))
        clusters_before = len(matcher.store.clusters())
        replay = matcher.ingest(RIGHT, billing[3].values())
        assert replay.matches  # matched again, into the same cluster
        assert len(matcher.store.clusters()) == clusters_before
        assert matcher.store.same(("R", first.tid), ("R", replay.tid))

    def test_unicode_values(self, matcher):
        """Non-ASCII names survive indexing, matching and clustering."""
        left = matcher.ingest(
            LEFT,
            {"FN": "Müller", "LN": "北京", "addr": "Ünterstraße 1",
             "tel": "030-555", "email": "mü@例.com", "gender": "F"},
        )
        right = matcher.ingest(
            RIGHT,
            {"FN": "Müller", "LN": "北京", "post": "Ünterstraße 1",
             "phn": "030-555", "email": "mü@例.com", "gender": "F"},
        )
        assert right.matches == ((left.tid, right.tid),)

    def test_none_values(self, matcher):
        """Records with null attributes never crash and never match on nulls.

        Equality and similarity on nulls are false (a missing value
        carries no evidence), so two all-null records stay apart.
        """
        left = matcher.ingest(LEFT, {"FN": None, "LN": None})
        right = matcher.ingest(RIGHT, {"FN": None, "LN": None})
        assert right.matches == ()
        assert matcher.store.cluster_of(LEFT, left.tid).size == 1
        assert matcher.store.cluster_of(RIGHT, right.tid).size == 1


class TestBudgets:
    """The two bounds on one ingest: the round budget of each delta chase
    (the spec's ``execution.max_rounds``) and the records its cascade
    examines (``MAX_CASCADE``)."""

    def test_delta_chases_run_under_the_specs_round_budget(self, workspace_for):
        dataset = generate_dataset(300, seed=7)
        workspace = workspace_for(
            dataset, execution={"mode": "enforce", "max_rounds": 1}
        )
        matcher = workspace.stream()
        assert matcher.max_rounds == 1
        matcher.ingest_stream(arrival_stream(dataset, seed=7).events)
        rounds = workspace.metrics.histogram("chase.rounds").summary()
        assert rounds["max"] <= 1
        assert workspace.plan.stats.rounds_exhausted > 0

    def test_a_truncated_cascade_makes_a_prefix_of_the_unions(
        self, workspace, monkeypatch
    ):
        """Billing 1 matches credit 0 (ϕ2 and ϕ3, then ϕ1 on the repaired
        address), and the merge repairs credit 0's ``addr``, which ϕ1
        reads.  Re-examined, credit 0 now matches billing 0 by ϕ1.  With a
        cascade of one record that second round never runs: the ingest
        says so, and its unions stop short of the full ingest's."""
        mark = {"FN": "Mark", "LN": "Smith", "gender": "M"}
        earlier = [
            (LEFT, {**mark, "addr": "10 Oak St", "tel": "555", "email": "m@x"}),
            (RIGHT, {**mark, "post": "10 Oak Street", "phn": "777", "email": None}),
        ]
        last = {**mark, "post": "10 Oak Street", "phn": "555", "email": "m@x"}
        full, cut = workspace.stream(), workspace.stream()
        for matcher in (full, cut):
            matcher.ingest_stream(earlier)
        whole = full.ingest(RIGHT, last)
        monkeypatch.setattr(matcher_module, "MAX_CASCADE", 1)
        truncated = cut.ingest(RIGHT, last)
        assert truncated.cascade_truncated and not whole.cascade_truncated
        assert whole.matches == ((0, 1), (0, 0))
        assert truncated.matches == whole.matches[:1]
        (small,), (big,) = cut.store.clusters(), full.store.clusters()
        assert small.left_tids == big.left_tids == {0}
        assert small.right_tids == {1}
        assert big.right_tids == {0, 1}


def _fig1_events(credit, billing):
    return [(LEFT, row.values(), row.tid) for row in credit] + [
        (RIGHT, row.values(), row.tid) for row in billing
    ]


class TestBootstrap:
    """A store is warm-started from batch data with one ``ingest_batch``."""

    def test_bootstrap_matches_streaming(self, workspace, fig1):
        """Warm-starting from batch data equals streaming the same rows."""
        _, credit, billing = fig1
        warm = workspace.stream()
        warm.ingest_batch(_fig1_events(credit, billing))
        cold = workspace.stream()
        _ingest_fig1(cold, fig1)
        assert warm.store.clusters() == cold.store.clusters()
        # Tuple ids were preserved, so rows line up with the sources.
        assert sorted(warm.store.left.tids()) == sorted(credit.tids())

    def test_bootstrap_then_stream(self, matcher, fig1):
        """Ingesting after a warm start matches against the warm state."""
        _, credit, billing = fig1
        matcher.ingest_batch(_fig1_events(credit, []))
        result = matcher.ingest(RIGHT, billing[3].values())
        assert (0, result.tid) in result.matches
