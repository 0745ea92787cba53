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

from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import eq
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.schema import LEFT, RIGHT
from repro.plan.blocking import column_like, sequence_index

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
    compression, and the member set of every root, over ``("L" | "R",
    tid)`` nodes: what the engine's stores
    (:class:`~repro.engine.store.MatchStore`) fold matches into as they
    arrive, and persist root by root.  A batch run's matches are all
    known at once and cluster through :func:`cluster_matches` instead.

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


class ClusterList(Sequence[Cluster]):
    """Entity clusters as columns, what :func:`cluster_matches` returns.

    Compressed rows over int columns, a record once: cluster ``c``'s
    left tids, ascending, are ``lefts[left_starts[c]:left_starts[c +
    1]]``, and its right tids likewise in ``rights``.  As a ``Sequence``
    item ``c`` is a :class:`Cluster`, built when read, and a slice is a
    tuple of them; it compares equal to a list or tuple of the same
    clusters, as the list it replaces did.
    """

    __slots__ = ("left_starts", "lefts", "right_starts", "rights")

    def __init__(
        self,
        left_starts: Sequence[int],
        lefts: Sequence[int],
        right_starts: Sequence[int],
        rights: Sequence[int],
    ) -> None:
        self.left_starts, self.lefts = left_starts, lefts
        self.right_starts, self.rights = right_starts, rights

    def tids(self, index: int) -> Tuple[Sequence[int], Sequence[int]]:
        """Cluster ``index``'s left and right tids, each ascending."""
        left_starts, right_starts = self.left_starts, self.right_starts
        return (
            self.lefts[left_starts[index]:left_starts[index + 1]],
            self.rights[right_starts[index]:right_starts[index + 1]],
        )

    def __len__(self) -> int:
        return len(self.left_starts) - 1

    def __getitem__(self, index):
        index = sequence_index(index, len(self), "cluster")
        if isinstance(index, range):
            return tuple(map(self.__getitem__, index))
        lefts, rights = self.tids(index)
        return Cluster(frozenset(lefts), frozenset(rights))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (ClusterList, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ClusterList({len(self)} clusters)"


def cluster_matches(matches: Iterable[Pair]) -> ClusterList:
    """Transitive closure of pairwise matches into clusters, in the order
    their first record appears in ``matches``.

    Singleton tuples (never matched) do not appear — callers that need
    them can add one cluster per unmatched tid.

    A flat union-find over *slots*: each side's distinct tids numbered in
    the order they first appear, the right ones after the left.  Two
    ``array('i')`` — ``parent`` and ``size`` — union by size; no node
    tuple or set is built.  A sequence with ``columns()`` (the batch
    report's :class:`~repro.api.report.Matches`) hands over its left and
    right tid columns; any other is read pair by pair.

    >>> clusters = cluster_matches([(0, 0), (0, 1), (2, 3)])
    >>> sorted(cluster.size for cluster in clusters)
    [2, 3]
    """
    columns = getattr(matches, "columns", None)
    if columns is not None:
        lefts, rights = columns()
    else:
        pairs = list(matches)
        lefts, rights = [left for left, _ in pairs], [right for _, right in pairs]
        del pairs
    left_slots, left_tids = _slots(lefts)
    right_slots, right_tids = _slots(rights)
    del lefts, rights
    base = len(left_tids)
    nodes = base + len(right_tids)
    parent = array("i", range(nodes))
    size = array("i", [1]) * nodes
    for a, b in zip(left_slots, map(base.__add__, right_slots)):
        while parent[a] != a:  # path halving
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            size[a] += size[b]
    del size, left_slots, right_slots
    # Every node's root, by pointer jumping: the trees are shallow.
    roots = parent
    while True:
        jumped = array("i", map(roots.__getitem__, roots))
        if jumped == roots:
            break
        roots = jumped
    # The clusters in the order their first match comes: a match's left
    # record is in its cluster, and the left slots are in match order.
    numbers = {root: number for number, root in enumerate(dict.fromkeys(roots[:base]))}
    ids = array("i", map(numbers.__getitem__, roots))
    return ClusterList(
        *_grouped(ids[:base], left_tids, len(numbers)),
        *_grouped(ids[base:], right_tids, len(numbers)),
    )


def _slots(tids: Sequence[int]) -> Tuple[array, Sequence[int]]:
    """Per item of ``tids``, its slot — its tid's number among the
    distinct ones, in the order they first appear — and those distinct
    tids in that order, in a column like ``tids``'."""
    numbers: Dict[int, int] = {}
    # ``len(numbers)`` is read as each tid comes: the next number.
    slots = array("i", map(numbers.setdefault, tids, map(len, repeat(numbers))))
    return slots, column_like(tids, numbers)


def _grouped(
    ids: Sequence[int], tids: Sequence[int], clusters: int
) -> Tuple[array, Sequence[int]]:
    """``tids`` bucketed by cluster id: each cluster's run start, and the
    tids in cluster order, ascending within each (the second sort, by
    cluster, is stable)."""
    sizes = Counter(ids)
    starts = array("i", accumulate(map(sizes.__getitem__, range(clusters)), initial=0))
    ascending = sorted(range(len(tids)), key=tids.__getitem__)
    return starts, column_like(
        tids, map(tids.__getitem__, sorted(ascending, key=ids.__getitem__))
    )


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
