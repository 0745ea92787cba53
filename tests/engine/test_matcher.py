"""IncrementalMatcher: streaming ingest, bootstrap, and edge cases."""

from __future__ import annotations

import pytest

from repro.core.schema import LEFT, RIGHT
from repro.engine import IncrementalMatcher, MatchStore
from repro.plan.compile import compile_plan
from repro.relations.relation import Relation


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
            IncrementalMatcher(chase_only, MatchStore(target, workspace.plan.rcks))

    def test_store_target_mismatch(self, workspace, workspace_for, ext_target):
        foreign = workspace_for(ext_target).stream().store
        with pytest.raises(ValueError, match="different target"):
            IncrementalMatcher(workspace.plan, foreign)

    def test_empty_store_bootstrap(self, matcher, pair):
        """Bootstrapping from empty relations is a no-op, not an error."""
        result = matcher.bootstrap(Relation(pair.left), Relation(pair.right))
        assert (result.left_rows, result.right_rows) == (0, 0)
        assert result.candidates == 0
        assert result.matches == 0
        # The store still works afterwards.
        ingest = matcher.ingest(LEFT, {"FN": "Mark", "LN": "Clifford"})
        assert matcher.store.cluster_of(LEFT, ingest.tid).size == 1

    def test_bootstrap_requires_empty_store(self, matcher, pair):
        matcher.ingest(LEFT, {"FN": "Mark"})
        with pytest.raises(ValueError, match="empty store"):
            matcher.bootstrap(Relation(pair.left), Relation(pair.right))

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


class TestBootstrap:
    def test_bootstrap_matches_streaming(self, workspace, fig1):
        """Warm-starting from batch data equals streaming the same rows."""
        _, credit, billing = fig1
        warm = workspace.stream()
        warm.bootstrap(credit, billing)
        cold = workspace.stream()
        _ingest_fig1(cold, fig1)
        assert warm.store.clusters() == cold.store.clusters()
        # Tuple ids were preserved, so rows line up with the sources.
        assert sorted(warm.store.left.tids()) == sorted(credit.tids())

    def test_bootstrap_chases_the_candidates_in_list_order(self, matcher, fig1):
        """Bootstrap hands the chase what blocking returned — each pair
        once, ascending by ``(left_tid, right_tid)``: the order the
        chase's hash joins bisect in."""
        _, credit, billing = fig1
        chased = []
        match_pairs = matcher._match_pairs
        matcher._match_pairs = lambda pairs: chased.append(list(pairs)) or match_pairs(pairs)
        result = matcher.bootstrap(credit, billing)
        (pairs,) = chased
        assert pairs == sorted(set(pairs)) and len(pairs) == result.candidates > 1

    def test_bootstrap_then_stream(self, matcher, target, fig1):
        """Ingesting after a bootstrap matches against the warm state."""
        _, credit, billing = fig1
        matcher.bootstrap(credit, Relation(target.pair.right))
        result = matcher.ingest(RIGHT, billing[3].values())
        assert (0, result.tid) in result.matches
