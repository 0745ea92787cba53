"""Tests for entity clustering of pairwise matches."""


from repro.matching.clustering import (
    Cluster,
    cluster_matches,
    evaluate_clusters,
)


class TestClusterMatches:
    def test_disjoint_pairs(self):
        clusters = cluster_matches([(0, 0), (1, 1)])
        assert len(clusters) == 2
        assert all(cluster.size == 2 for cluster in clusters)

    def test_shared_left_merges(self):
        clusters = cluster_matches([(0, 0), (0, 1)])
        assert len(clusters) == 1
        (cluster,) = clusters
        assert cluster.left_tids == {0}
        assert cluster.right_tids == {0, 1}

    def test_shared_right_merges(self):
        clusters = cluster_matches([(0, 5), (1, 5)])
        (cluster,) = clusters
        assert cluster.left_tids == {0, 1}

    def test_transitive_bridge(self):
        # 0-0, 1-0, 1-1: all four tuples in one entity.
        clusters = cluster_matches([(0, 0), (1, 0), (1, 1)])
        (cluster,) = clusters
        assert cluster.size == 4

    def test_empty(self):
        assert cluster_matches([]) == []

    def test_same_tid_different_sides_not_confused(self):
        clusters = cluster_matches([(7, 7)])
        (cluster,) = clusters
        assert cluster.left_tids == {7}
        assert cluster.right_tids == {7}

    def test_implied_pairs(self):
        cluster = Cluster(frozenset({0, 1}), frozenset({2}))
        assert cluster.implied_pairs() == {(0, 2), (1, 2)}


class TestEvaluateClusters:
    def test_perfect_clustering(self):
        truth = frozenset({(0, 0), (0, 1)})
        clusters = cluster_matches([(0, 0), (0, 1)])
        quality = evaluate_clusters(clusters, truth)
        assert quality.pairwise.precision == 1.0
        assert quality.pairwise.recall == 1.0
        assert quality.cluster_count == 1

    def test_over_merge_penalized(self):
        # A false bridge merges two entities: implied pairs include
        # wrong ones → precision drops.
        truth = frozenset({(0, 0), (1, 1)})
        clusters = cluster_matches([(0, 0), (1, 1), (0, 1)])
        quality = evaluate_clusters(clusters, truth)
        assert quality.pairwise.precision < 1.0
        assert quality.pairwise.recall == 1.0
        assert quality.largest_cluster == 4

    def test_purity_with_entity_maps(self):
        truth = frozenset({(0, 0), (1, 1)})
        clusters = cluster_matches([(0, 0), (1, 1), (0, 1)])
        quality = evaluate_clusters(
            clusters,
            truth,
            left_entity={0: 100, 1: 200},
            right_entity={0: 100, 1: 200},
        )
        assert quality.impure_clusters == 1

    def test_str(self):
        truth = frozenset({(0, 0)})
        quality = evaluate_clusters(cluster_matches([(0, 0)]), truth)
        assert "clusters=1" in str(quality)


class TestOnGeneratedData:
    def test_rck_matches_cluster_cleanly(self, small_dataset, workspace_for):
        matcher = workspace_for(small_dataset, execution={"mode": "direct"})
        result = matcher.match(small_dataset.credit, small_dataset.billing)
        quality = evaluate_clusters(
            result.clusters,
            small_dataset.true_matches,
            left_entity=small_dataset.credit_entity,
            right_entity=small_dataset.billing_entity,
        )
        # Tight RCK rules: very few impure clusters, high pairwise precision.
        assert quality.impure_clusters <= 0.05 * quality.cluster_count
        assert quality.pairwise.precision > 0.9
