"""Tests for entity clustering of pairwise matches, and for the one
record-level union-find (``Clusters``) the batch report and the engine's
stores share."""

import sqlite3
from collections import deque
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.findrcks import find_rcks
from repro.core.schema import LEFT, RIGHT
from repro.datagen.schemas import credit_billing_pair, paper_mds, paper_target
from repro.engine import MatchStore, SQLiteMatchStore
from repro.plan import HashBlockingBackend
from repro.matching.clustering import (
    Cluster,
    Clusters,
    cluster_matches,
    evaluate_clusters,
    node_of,
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


nodes = st.tuples(st.sampled_from("LR"), st.integers(0, 11))


def components(edges):
    """The connected components of ``edges``, by breadth-first search:
    node -> the frozenset of its component."""
    neighbours = {}
    for a, b in edges:
        neighbours.setdefault(a, set()).add(b)
        neighbours.setdefault(b, set()).add(a)
    component = {}
    for start in neighbours:
        if start in component:
            continue
        reached, queue = {start}, deque([start])
        while queue:
            for other in neighbours[queue.popleft()]:
                if other not in reached:
                    reached.add(other)
                    queue.append(other)
        component.update(dict.fromkeys(reached, frozenset(reached)))
    return component


def sorted_clusters(clusters):
    return sorted(
        (sorted(cluster.left_tids), sorted(cluster.right_tids)) for cluster in clusters
    )


class TestClustersAgainstBreadthFirstSearch:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(nodes, nodes), max_size=40))
    def test_union_find_equals_connected_components(self, edges):
        clusters = Clusters()
        # The size/tie rule, modelled without a union-find: a union keeps
        # the larger cluster's root, the first argument's on a tie.
        root_of, cluster_of = {}, {}
        found = []
        for a, b in edges:
            for node in (a, b):
                if node not in root_of:
                    root_of[node], cluster_of[node] = node, {node}
                    found.append(node)
            mine, theirs = cluster_of[a], cluster_of[b]
            distinct = mine is not theirs
            assert clusters.union(a, b) is distinct
            if distinct:
                keep = root_of[a] if len(mine) >= len(theirs) else root_of[b]
                mine |= theirs
                for node in mine:
                    cluster_of[node], root_of[node] = mine, keep
            assert clusters.find(a) == clusters.find(b) == root_of[a]

        component = components(edges)
        assert list(clusters.parent) == found
        for node in found:
            assert clusters.find(node) == root_of[node]
            assert clusters.members[clusters.find(node)] == component[node]
        for a in found:
            for b in found:
                assert clusters.same(a, b) is (component[a] is component[b])
        # One member set per root, holding its component.
        assert {frozenset(members) for members in clusters.members.values()} == set(
            component.values()
        )
        # groups(): the clusters in the order their first node was found.
        order = list(dict.fromkeys(component[node] for node in found))
        expected = [
            Cluster(
                frozenset(tid for tag, tid in members if tag == "L"),
                frozenset(tid for tag, tid in members if tag == "R"),
            )
            for members in order
        ]
        assert clusters.groups(include_singletons=True) == expected
        assert clusters.groups() == [
            cluster for cluster in expected if cluster.size > 1
        ]

    def test_groups_follow_discovery_not_set_order(self):
        """A cluster is listed where its first node was found, whichever
        root the size rule kept for it."""
        clusters = Clusters()
        clusters.union(("R", 9), ("L", 9))
        clusters.union(("L", 0), ("R", 0))
        clusters.union(("L", 1), ("R", 0))  # root ("L", 0)
        clusters.union(("R", 9), ("L", 1))  # 2 vs 3: root ("L", 0)
        clusters.union(("R", 5), ("L", 4))
        assert clusters.find(("R", 9)) == ("L", 0)
        assert clusters.groups() == [
            Cluster(frozenset({0, 1, 9}), frozenset({0, 9})),
            Cluster(frozenset({4}), frozenset({5})),
        ]


MATCHES = [(0, 0), (3, 1), (1, 1), (2, 5), (4, 5), (0, 2), (6, 6), (3, 1), (5, 6)]


def _store(path=None):
    pair = credit_billing_pair()
    target = paper_target(pair)
    blocking = HashBlockingBackend.per_rck(find_rcks(paper_mds(pair), target, m=5))
    store = (
        MatchStore(target, blocking)
        if path is None
        else SQLiteMatchStore(path, target, blocking)
    )
    row = {"c#": "111", "FN": "Mark", "LN": "Clifford"}
    for tid in range(8):
        store.add(LEFT, row, tid=tid)
        store.add(RIGHT, {"FN": "Mark", "LN": "Clifford"}, tid=tid)
    return store


class TestBatchAndStoreShareOneUnionFind:
    def test_one_match_list_gives_equal_clusters(self, tmp_path):
        batch = sorted_clusters(cluster_matches(MATCHES))
        assert batch == [([0], [0, 2]), ([1, 3], [1]), ([2, 4], [5]), ([5, 6], [6])]
        for store in (_store(), _store(tmp_path / "store.db")):
            for left_tid, right_tid in MATCHES:
                store.union(node_of(LEFT, left_tid), node_of(RIGHT, right_tid))
            assert store.merges == 8
            assert sorted_clusters(store.clusters()) == batch
            store.close()
        reopened = SQLiteMatchStore(tmp_path / "store.db")
        assert sorted_clusters(reopened.clusters()) == batch
        assert reopened.merges == 8
        reopened.close()

    def test_on_disk_root_pointers_follow_the_size_and_tie_rule(self, tmp_path):
        path = tmp_path / "roots.db"
        store = _store(path)
        L, R = partial(node_of, LEFT), partial(node_of, RIGHT)
        store.union(L(0), R(0))  # tie: ("L", 0)
        store.union(R(1), L(1))  # tie: ("R", 1)
        store.union(L(1), L(0))  # 2 vs 2, tie: L(1)'s root, ("R", 1)
        store.union(L(2), R(1))  # 1 vs 4: ("R", 1)
        store.union(R(2), L(3))  # tie: ("R", 2)
        store.close()
        connection = sqlite3.connect(path)
        rows = connection.execute(
            "SELECT side, tid, root_side, root_tid FROM clusters "
            "WHERE side != root_side OR tid != root_tid ORDER BY side, tid"
        ).fetchall()
        connection.close()
        assert rows == [
            (LEFT, 0, RIGHT, 1),
            (LEFT, 1, RIGHT, 1),
            (LEFT, 2, RIGHT, 1),
            (LEFT, 3, RIGHT, 2),
            (RIGHT, 0, RIGHT, 1),
        ]
        reopened = SQLiteMatchStore(path)
        assert reopened.find(L(0)) == R(1)
        # Loaded from the root pointers, the sizes keep deciding: 2 vs 4.
        assert reopened.union(L(3), R(0))
        assert reopened.find(R(2)) == R(1)
        reopened.close()
