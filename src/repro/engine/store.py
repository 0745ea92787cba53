"""The engine's persistent state: records, indexes, identity clusters.

A :class:`MatchStore` is everything the incremental matcher needs to keep
between arrivals — the instance ``D`` the matching runs over, with stable
tuple ids, and the clusters folded from its matches:

* the ingested records themselves, one :class:`~repro.relations.relation.Relation`
  per side of the schema pair for the current values and one for the
  values as they arrived;
* a blocking backend updated on every :meth:`MatchStore.add`: an empty
  twin of the batch plan's backend, built from its passes document
  (:meth:`~repro.plan.blocking.BlockingBackend.to_dict`), so a stream
  probes under exactly the keys and window semantics the batch run of
  the same spec uses;
* the entity clusters that pairwise match decisions are folded into as
  they are made: a :class:`~repro.matching.clustering.Clusters`, a
  union-find over ``("L" | "R", tid)`` nodes whose clusters equal those
  :func:`~repro.matching.clustering.cluster_matches` folds a batch run's
  matches into;
* counters (``comparisons``, ``merges``) so the cost of incremental
  matching is measurable against batch re-runs.

This is the only implementation of that state: the durable
:class:`~repro.engine.sqlite.SQLiteMatchStore` is this class plus a log
of the records each unit ingested and a checkpoint of what changed.  It keeps the
state in two halves, *records* (:meth:`MatchStore._start_records`) and
*clusters* (:meth:`MatchStore._start_clusters`), which the durable store
loads independently.

The store deliberately knows nothing about MDs or enforcement; that logic
lives in :class:`repro.engine.matcher.IncrementalMatcher`.  Keeping state
and policy separate is what lets the store be saved to disk
(:func:`~repro.engine.sqlite.save_store`) and warmed back up without
re-matching.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.schema import LEFT, RIGHT, ComparableLists
from repro.core.semantics import InstancePair
from repro.matching.clustering import Cluster, Clusters, Node, node_of
from repro.plan.blocking import BlockingBackend
from repro.relations.relation import Relation, Row, is_tid

def check_tid(tid: object) -> None:
    """Refuse, with a ``ValueError`` naming it, a tid SQLite cannot hold
    (a ``bool`` is not a tid), so a memory store takes only what its
    durable twin can write."""
    if not is_tid(tid) or not -(2**63) <= tid < 2**63:
        raise ValueError(f"tid {tid!r} is not an integer in SQLite's signed 64-bit range")


class MatchStore:
    """Incrementally maintained records + indexes + identity clusters.

    >>> from repro.api import Workspace
    >>> plan = (Workspace.builder()
    ...     .schema("R", ["A", "B"], "S", ["A", "B"])
    ...     .target(["A"], ["A"])
    ...     .mds(["R[B] = S[B] -> R[A] <=> S[A]"])
    ...     .workspace().plan)
    >>> store = MatchStore(plan.target, plan.blocking)
    >>> tid = store.add(LEFT, {"A": "a", "B": "b"})
    >>> store.stats()["left_rows"]
    1
    """

    #: Persistence backend identifier, reported by :meth:`stats`.
    backend_name = "memory"

    def __init__(self, target: ComparableLists, blocking: BlockingBackend) -> None:
        """A store streaming over an empty twin of ``blocking`` (the
        plan's backend).  Raises ``ValueError`` when it cannot back a
        store, before anything is stored."""
        if blocking is None:
            raise ValueError("a store needs a blocking backend to index under")
        self.target = target
        self.pair = target.pair
        #: The blocking passes as a document
        #: (:meth:`~repro.plan.blocking.BlockingBackend.to_dict`): what a
        #: store file keeps and a stream compares with its plan's.
        self.passes: Dict[str, object] = blocking.to_dict()
        self._start_records(BlockingBackend.from_dict(self.passes))
        self._start_clusters()
        #: Candidate pair comparisons charged so far.
        self.comparisons = 0
        #: Cluster merges performed (successful unions).
        self.merges = 0
        #: Fingerprint of the :class:`repro.api.ResolutionSpec` this store
        #: was built under (``None`` for stores built outside the spec
        #: API).  Store files persist it; ``Workspace.stream`` refuses to
        #: resume a store fingerprinted by a different spec.
        self.spec_fingerprint: Optional[str] = None

    def _start_records(self, blocking: BlockingBackend) -> None:
        """The records half, empty: both value sets of both sides, the
        blocking index over them and the instances the chase reads."""
        #: The kernel's blocking backend doubles as the store's index
        #: set: streaming ingest calls ``blocking.add``/``probe`` on it.
        self.blocking = blocking
        self.left = Relation(self.pair.left)
        self.right = Relation(self.pair.right)
        #: Per side, the records as ingested (a second relation: the chase
        #: projects it like the current one).
        self._arrival = (Relation(self.pair.left), Relation(self.pair.right))
        #: Per side, ``tid -> blocking keys``, derived once per record.
        self._keys: Tuple[Dict[int, tuple], Dict[int, tuple]] = ({}, {})
        #: Per side, ``tid -> the attributes whose current value a repair
        #: moved off the arrival one`` (a record with none is absent).
        self._off_arrival: Tuple[Dict[int, Set[str]], Dict[int, Set[str]]] = ({}, {})
        #: The instance a delta is chased over, indexed by "read the
        #: arrival values": the current values, then the arrival values.
        self.instances = (
            InstancePair(self.pair, self.left, self.right),
            InstancePair(self.pair, *self._arrival),
        )

    def _start_clusters(self) -> None:
        """The clusters half, empty: the record-level union-find."""
        self.identities = Clusters()

    # ------------------------------------------------------------------
    # Records and indexes
    # ------------------------------------------------------------------

    def relation(self, side: int) -> Relation:
        """The relation holding the given side's records."""
        if side == LEFT:
            return self.left
        if side == RIGHT:
            return self.right
        raise ValueError(f"side must be LEFT (0) or RIGHT (1), got {side}")

    def add(self, side: int, values: Dict[str, object], tid: Optional[int] = None) -> int:
        """Insert a record and index it; no matching happens here.

        Returns the assigned tuple id, held to :func:`check_tid` first
        (given or the relation's next).  The record starts as a singleton
        cluster; :class:`~repro.engine.matcher.IncrementalMatcher.ingest`
        is the entry point that also probes and matches.
        """
        relation = self.relation(side)
        check_tid(relation.next_tid if tid is None else tid)
        tid = relation.insert(values, tid=tid)
        row = relation[tid]
        self._index(side, row)
        self._arrival[side].insert(values, tid=tid)
        self.find(node_of(side, tid))  # register the singleton cluster
        return tid

    def _index(self, side: int, row: Row) -> None:
        """Derive the record's keys from its arrival ``row`` and add it."""
        blocking = self.blocking
        keys = self._keys[side][row.tid] = blocking.keys_for(side, row)
        blocking.add(side, row, keys)

    def neighbors(self, side: int, tid: int) -> List[int]:
        """Other-side tuple ids sharing at least one index bucket with the
        stored record, probed under the keys it was indexed with.

        This is the record's candidate neighborhood — the union of one
        bucket probe per index, exactly the pairs the backend's batch
        ``candidates`` over the same keys would generate for it.
        """
        return self.blocking.probe(side, self.arrival_row(side, tid), self._keys[side][tid])

    def arrival_values(self, side: int, tid: int) -> Dict[str, object]:
        """The record's values as ingested, before any consensus repair.

        Index keys and cluster value resolution both work from arrival
        values; the relations' *current* values carry the per-cluster
        consensus written by the matcher.  A copy.
        """
        return self._arrival[side][tid].values()

    def arrival_row(self, side: int, tid: int) -> Row:
        """A read-only row over the arrival values (what the record's
        bucket keys were derived from, whatever a repair rewrote since)."""
        return self._arrival[side][tid]

    def is_repaired(self, side: int, tid: int, attributes: Iterable[str]) -> bool:
        """Whether the record's current value differs from its arrival
        value on any of ``attributes`` (kept by :meth:`repair`, the one
        writer of current values: no cell is read)."""
        moved = self._off_arrival[side].get(tid)
        return moved is not None and not moved.isdisjoint(attributes)

    def repair(self, side: int, tid: int, changes: Dict[str, object]) -> None:
        """Overwrite the listed cells of the record's current values."""
        relation, arrival = self.relation(side), self._arrival[side][tid]
        moved = self._off_arrival[side].setdefault(tid, set())
        for attribute, value in changes.items():
            relation.set_value(tid, attribute, value)
            (moved.add if value != arrival[attribute] else moved.discard)(attribute)
        if not moved:
            del self._off_arrival[side][tid]

    # ------------------------------------------------------------------
    # Identity clusters (``identities``, a Clusters union-find)
    # ------------------------------------------------------------------

    def find(self, node: Node) -> Node:
        """Root of ``node``'s cluster, registering it when unseen."""
        return self.identities.find(node)

    def union(self, a: Node, b: Node) -> bool:
        """Merge two clusters; True when they were distinct."""
        if not self.identities.union(a, b):
            return False
        self.merges += 1
        return True

    def same(self, a: Node, b: Node) -> bool:
        """Whether two records are currently in one cluster."""
        return self.identities.same(a, b)

    def cluster_nodes(self, side: int, tid: int) -> Set[Node]:
        """All nodes in the cluster of the given record."""
        return set(self.identities.members[self.find(node_of(side, tid))])

    def cluster_of(self, side: int, tid: int) -> Cluster:
        """The record's cluster as a :class:`~repro.matching.clustering.Cluster`."""
        return Cluster.of(self.cluster_nodes(side, tid))

    def clusters(self, include_singletons: bool = False) -> List[Cluster]:
        """All identity clusters (only merged ones unless asked otherwise).

        With the default ``include_singletons=False`` the result is
        directly comparable to the batch side's
        :func:`~repro.matching.clustering.cluster_matches`, which never
        reports unmatched records.
        """
        result = self.identities.groups(include_singletons)
        result.sort(key=lambda cluster: (sorted(cluster.left_tids), sorted(cluster.right_tids)))
        return result

    # ------------------------------------------------------------------
    # Durability hooks (no-ops in memory; the SQLite backend overrides)
    # ------------------------------------------------------------------

    def commit(self) -> None:
        """Make the current state durable.  In-memory stores have no
        durability, so this is a no-op — callers (the matcher commits
        once per ingest) can invoke it unconditionally."""

    @contextmanager
    def ingesting(self):
        """Scope one matcher ingest: the body adds the arriving record and
        makes the repairs and unions its chases decide.  A durable store
        logs the record as its unit's input; here nothing happens."""
        yield

    def attach(self, ingest: Callable[[int, Dict[str, object], int], object]) -> None:
        """Take a matcher's per-record ingest (``ingest(side, values,
        tid)``) as the way to replay input this store committed but holds
        only as a log, and replay it.  A memory store has no log."""

    def rollback(self) -> None:
        """No-op: the memory store has no transaction to roll back.

        The matcher calls this when an ingest or micro-batch raises.  The
        durable store discards the failed unit; here what the unit wrote
        before failing stays (records added and indexed, never chased)."""

    def close(self, commit: bool = True) -> None:
        """Release backing resources (no-op in memory)."""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Operational counters and sizes, JSON-serializable."""
        clusters = self.clusters()
        return {
            "backend": self.backend_name,
            "left_rows": len(self.left),
            "right_rows": len(self.right),
            "matched_clusters": len(clusters),
            "largest_cluster": max((cluster.size for cluster in clusters), default=0),
            "comparisons": self.comparisons,
            "merges": self.merges,
            "indexes": self.blocking.index_stats(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({len(self.left)}+{len(self.right)} rows, "
            f"{self.blocking.name} blocking, {self.merges} merges)"
        )
