"""Entity consolidation: from pairwise matches to entity clusters.

Matchers emit pairwise decisions; downstream consumers (merge/purge, MDM)
need *entities*.  This module groups matched pairs into clusters by
transitive closure (union-find over the bipartite match graph) and scores
cluster quality against the generator truth:

* *pairwise* precision/recall over the pairs implied by the clustering
  (the standard cluster-level metric for ER);
* cluster counts and size distribution, and the number of clusters mixing
  several true entities (purity violations).

Transitive closure can over-merge when a false positive bridges two
entities — exactly the effect the cluster metrics surface; the paper's
RCK-based rules keep bridges rare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .evaluate import MatchQuality, Pair

#: A node of the match graph: ``2 * tid`` for a left tuple, ``2 * tid + 1``
#: for a right one.
Node = int


@dataclass(frozen=True)
class Cluster:
    """One consolidated entity: the left and right tuple ids merged."""

    left_tids: FrozenSet[int]
    right_tids: FrozenSet[int]

    @property
    def size(self) -> int:
        """Total number of tuples in the cluster."""
        return len(self.left_tids) + len(self.right_tids)

    def implied_pairs(self) -> Set[Pair]:
        """All cross-relation pairs the cluster asserts to match."""
        return {
            (left_tid, right_tid)
            for left_tid in self.left_tids
            for right_tid in self.right_tids
        }


def cluster_matches(matches: Iterable[Pair]) -> List[Cluster]:
    """Transitive closure of pairwise matches into clusters.

    Singleton tuples (never matched) do not appear — callers that need
    them can add one cluster per unmatched tid.

    >>> clusters = cluster_matches([(0, 0), (0, 1), (2, 3)])
    >>> sorted(cluster.size for cluster in clusters)
    [2, 3]
    """
    parent: Dict[Node, Node] = {}

    def find(node: Node) -> Node:
        if node not in parent:
            parent[node] = node
            return node
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def union(a: Node, b: Node) -> None:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_b] = root_a

    for left_tid, right_tid in matches:
        union(2 * left_tid, 2 * right_tid + 1)

    members: Dict[Node, Tuple[Set[int], Set[int]]] = {}
    for node in list(parent):
        root = find(node)
        lefts, rights = members.setdefault(root, (set(), set()))
        (rights if node & 1 else lefts).add(node >> 1)

    return [
        Cluster(frozenset(lefts), frozenset(rights))
        for lefts, rights in members.values()
    ]


@dataclass(frozen=True)
class ClusterQuality:
    """Cluster-level evaluation results."""

    pairwise: MatchQuality
    cluster_count: int
    largest_cluster: int
    impure_clusters: int

    def __str__(self) -> str:
        return (
            f"{self.pairwise} clusters={self.cluster_count} "
            f"largest={self.largest_cluster} impure={self.impure_clusters}"
        )


def evaluate_clusters(
    clusters: Iterable[Cluster],
    truth: FrozenSet[Pair],
    left_entity: Optional[Dict[int, int]] = None,
    right_entity: Optional[Dict[int, int]] = None,
) -> ClusterQuality:
    """Score a clustering against the pairwise truth.

    ``left_entity``/``right_entity`` (tid → entity id, as produced by the
    dataset generator) enable the purity count; without them impure
    clusters are reported as 0.
    """
    clusters = list(clusters)
    implied: Set[Pair] = set()
    largest = 0
    impure = 0
    for cluster in clusters:
        implied |= cluster.implied_pairs()
        largest = max(largest, cluster.size)
        if left_entity is not None and right_entity is not None:
            entities = {left_entity[tid] for tid in cluster.left_tids} | {
                right_entity[tid] for tid in cluster.right_tids
            }
            if len(entities) > 1:
                impure += 1
    true_positives = len(implied & truth)
    pairwise = MatchQuality(
        true_positives=true_positives,
        false_positives=len(implied) - true_positives,
        false_negatives=len(truth) - true_positives,
    )
    return ClusterQuality(
        pairwise=pairwise,
        cluster_count=len(clusters),
        largest_cluster=largest,
        impure_clusters=impure,
    )
