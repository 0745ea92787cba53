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

from repro.core.schema import LEFT, RIGHT

from .evaluate import MatchQuality, Pair

#: A record identity, a node of the match graph: ``("L" | "R", tid)``.
Node = Tuple[str, int]

_SIDE_TAGS = {LEFT: "L", RIGHT: "R"}


def node_of(side: int, tid: int) -> Node:
    """The cluster node of a record given its side and tuple id."""
    return (_SIDE_TAGS[side], tid)


@dataclass(frozen=True)
class Cluster:
    """One consolidated entity: the left and right tuple ids merged."""

    left_tids: FrozenSet[int]
    right_tids: FrozenSet[int]

    @classmethod
    def of(cls, nodes: Iterable[Node]) -> "Cluster":
        """The cluster of a set of record nodes."""
        lefts = frozenset(tid for tag, tid in nodes if tag == "L")
        return cls(lefts, frozenset(tid for tag, tid in nodes if tag == "R"))

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


class Clusters:
    """The record-level union-find: which records are one entity.

    Union by size — a tie keeps the first argument's root — with path
    compression, and the member set of every root.  The batch report
    (:func:`cluster_matches`) and the engine's stores
    (:class:`~repro.engine.store.MatchStore`) both fold matches into one.

    >>> clusters = Clusters()
    >>> clusters.union(("L", 0), ("R", 3)), clusters.find(("R", 3))
    (True, ('L', 0))
    """

    def __init__(self) -> None:
        #: Node -> its parent; a root is its own.  Keys are in the order
        #: the nodes were found.
        self.parent: Dict[Node, Node] = {}
        #: Root -> the nodes of its cluster.
        self.members: Dict[Node, Set[Node]] = {}

    def find(self, node: Node) -> Node:
        """Root of ``node``'s cluster, registering it when unseen."""
        parent = self.parent
        if node not in parent:
            parent[node] = node
            self.members[node] = {node}
            return node
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def union(self, a: Node, b: Node) -> bool:
        """Merge two clusters; True when they were distinct."""
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return False
        members = self.members
        if len(members[root_a]) < len(members[root_b]):
            root_a, root_b = root_b, root_a
        self.parent[root_b] = root_a
        members[root_a] |= members.pop(root_b)
        return True

    def same(self, a: Node, b: Node) -> bool:
        """Whether two nodes are in one cluster."""
        return self.find(a) == self.find(b)

    def groups(self, include_singletons: bool = False) -> List[Cluster]:
        """Every cluster (only merged ones unless asked otherwise), in the
        order their first node was found."""
        members = self.members
        return [
            Cluster.of(members[root])
            for root in dict.fromkeys(map(self.find, self.parent))
            if include_singletons or len(members[root]) > 1
        ]

    def adopt(self, node: Node, root: Node) -> None:
        """Register ``node`` directly under ``root`` — loading a saved
        clustering from its root pointers, one node at a time."""
        self.parent[node] = root
        self.members.setdefault(root, set()).add(node)


def cluster_matches(matches: Iterable[Pair]) -> List[Cluster]:
    """Transitive closure of pairwise matches into clusters, in the order
    their first record appears in ``matches``.

    Singleton tuples (never matched) do not appear — callers that need
    them can add one cluster per unmatched tid.

    >>> clusters = cluster_matches([(0, 0), (0, 1), (2, 3)])
    >>> sorted(cluster.size for cluster in clusters)
    [2, 3]
    """
    clusters = Clusters()
    for left_tid, right_tid in matches:
        clusters.union(("L", left_tid), ("R", right_tid))
    return clusters.groups()


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
