"""`SQLiteMatchStore`: the durable drop-in for :class:`~repro.engine.store.MatchStore`.

Same duck-typed interface the :class:`~repro.engine.matcher.IncrementalMatcher`
drives — records, blocking index, incremental union-find, cost counters —
with the records, clusters and counters in one embedded SQLite database:

* **one ingest = one transaction** — the matcher calls :meth:`commit` at
  the end of each ``ingest``, so a crash mid-record leaves the previous
  consistent state (WAL journal mode; readers never block on the writer);
* **O(1) warm restart** — opening an existing store reads only the
  ``meta`` table (schema version, configuration, fingerprint, counters);
  records and clusters stay on disk until touched, so resume cost is
  independent of how much has been ingested;
* **the memory store's blocking index** — the backend
  :func:`~repro.plan.blocking.build_blocking` returns, held in memory
  and derived from the records' arrival values (one scan of the
  ``records`` table) on the first call that needs it: a record's keys
  are a function of those values and the configuration, so there is
  nothing to persist and nothing that can disagree with the
  configuration;
* **identical matching behavior** — the same blocking backend, and union
  by size with the same tie order, so both stores produce the same
  matches, clusters, provenance and stats (proven by
  ``tests/engine/test_sqlite_differential.py``).

The writer holds every record's keys in RAM, as the memory store does.
A second writer's commits do not reach this process's index until a
rollback drops it — one more reason a store has one writer.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.core.rck import RelativeKey
from repro.core.schema import LEFT, RIGHT, ComparableLists
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.plan.blocking import DEFAULT_ENCODED_ATTRIBUTES, BlockingBackend
from repro.relations.relation import Row

from ..store import BlockedStore, Cluster, Node, _SIDE_TAGS, _as_cluster
from .clusters import DbNode, SQLiteUnionFind
from .connection import connect
from .records import SQLiteRelation, ValuesView
from .schema import (
    SQLITE_SCHEMA_VERSION,
    initialize,
    read_meta,
    upgrade_from_v1,
    write_meta,
)

_TAG_SIDES = {tag: side for side, tag in _SIDE_TAGS.items()}

#: Names of the persisted cost counters.
_COUNTERS = ("comparisons", "merges")


def _to_db(node: Node) -> DbNode:
    tag, tid = node
    return (_TAG_SIDES[tag], tid)


def _to_node(db_node: DbNode) -> Node:
    side, tid = db_node
    return (_SIDE_TAGS[side], tid)


class SQLiteMatchStore(BlockedStore):
    """Durable matcher state in one SQLite file.

    Creating a store requires ``target`` and ``rcks`` (the configuration
    is persisted in the ``meta`` table); opening an existing file needs
    only the path — the configuration is reconstructed from ``meta`` and,
    when the caller *does* pass one, verified to match.
    """

    backend_name = "sqlite"

    def __init__(
        self,
        path,
        target: Optional[ComparableLists] = None,
        rcks: Optional[Sequence[RelativeKey]] = None,
        key_length: int = 1,
        encode_attributes: Iterable[str] = DEFAULT_ENCODED_ATTRIBUTES,
        blocking_backend: str = "hash",
        window: int = 10,
        key_pairs=None,
        tracer: Tracer = NULL_TRACER,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.path = Path(path)
        self.tracer = tracer
        self.metrics = metrics
        requested = (
            target,
            rcks,
            key_length,
            encode_attributes,
            blocking_backend,
            window,
            key_pairs,
        )
        existing = self.path.exists() and self.path.stat().st_size > 0
        if not existing:
            # Refused before connect() writes a file: a failed creation
            # leaves no table-less database for every later open to fail on.
            if target is None or rcks is None:
                raise ValueError(
                    f"creating a new SQLite store at {self.path} requires "
                    "target and rcks"
                )
            # An empty store's index is complete.
            self._blocking = self._configure(*requested)
        self.connection = connect(self.path)
        try:
            if existing:
                self._open_existing(*requested)
            else:
                self._create_fresh()
            self.left = SQLiteRelation(self.connection, self.pair.left, LEFT)
            self.right = SQLiteRelation(self.connection, self.pair.right, RIGHT)
            self._union_find = SQLiteUnionFind(self.connection)
            self._counters: Dict[str, int] = {
                name: int(read_meta_counter(self.connection, name))
                for name in _COUNTERS
            }
            self._counters_dirty = False
            self._fingerprint = read_meta(self.connection, "spec_fingerprint")
        except BaseException:
            self.connection.close()
            raise

    # ------------------------------------------------------------------
    # Open / create
    # ------------------------------------------------------------------

    def _create_fresh(self) -> None:
        """Lay out the tables and persist the configuration."""
        initialize(self.connection)
        # Import here to avoid a cycle: snapshot imports the base store.
        from ..snapshot import config_to_dict

        write_meta(
            self.connection, "schema_version", str(SQLITE_SCHEMA_VERSION)
        )
        write_meta(
            self.connection,
            "config",
            json.dumps(config_to_dict(self), sort_keys=True),
        )
        for name in _COUNTERS:
            self.connection.execute(
                "INSERT OR IGNORE INTO counters (name, value) VALUES (?, 0)",
                (name,),
            )
        self.connection.commit()

    def _open_existing(
        self,
        target,
        rcks,
        key_length,
        encode_attributes,
        blocking_backend,
        window,
        key_pairs,
    ):
        version = read_meta(self.connection, "schema_version")
        if version == "1":
            upgrade_from_v1(self.connection)
        elif version != str(SQLITE_SCHEMA_VERSION):
            raise ValueError(
                f"unsupported store schema version {version!r} in "
                f"{self.path}; this build reads version "
                f"{SQLITE_SCHEMA_VERSION}"
            )
        raw = read_meta(self.connection, "config")
        if raw is None:
            raise ValueError(f"store {self.path} has no configuration")
        from ..snapshot import config_from_dict

        # Stores written before the blocking section existed were all
        # hash-blocked; config_from_dict defaults accordingly.
        self._configure(**config_from_dict(json.loads(raw)))
        self._blocking = None
        requested_pairs = (
            tuple(tuple(pair) for pair in key_pairs) if key_pairs else None
        )
        windowed = blocking_backend == "sorted-neighborhood"
        if target is not None and (
            target != self.target
            or (rcks is not None and list(rcks) != self.rcks)
            or key_length != self.key_length
            or tuple(encode_attributes) != self.encode_attributes
            or blocking_backend != self.blocking_backend
            or (windowed and int(window) != self.window)
            # A sorted-neighborhood store records the pairs it resolved:
            # requesting none asks for the RCKs' recipe, which the RCK
            # comparison above covers.
            or (
                requested_pairs != self.key_pairs
                and not (windowed and requested_pairs is None)
            )
        ):
            raise ValueError(
                f"store {self.path} was created with a different "
                "configuration (target/RCKs/key length/blocking) than "
                "requested"
            )

    # ------------------------------------------------------------------
    # Records and the blocking index
    # ------------------------------------------------------------------

    def relation(self, side: int) -> SQLiteRelation:
        """The relation holding ``side``'s records."""
        return self.left if side == LEFT else self.right

    @property
    def blocking(self) -> BlockingBackend:
        """The blocking index: the memory store's backend, built on first
        use from one scan of the records' arrival values, joined by every
        :meth:`add`, and dropped by :meth:`rollback`."""
        if self._blocking is None:
            blocking = self._new_blocking()
            self._keys = ({}, {})
            for side, tid, arrival in self.connection.execute(
                "SELECT side, tid, arrival FROM records"
            ):
                self._index(blocking, side, Row(tid, json.loads(arrival)))
            self._blocking = blocking
        return self._blocking

    def add(self, side: int, values: Dict[str, object], tid=None) -> int:
        """Insert an arriving record; index it; register its singleton."""
        with self.tracer.span(
            "store.upsert", side=_SIDE_TAGS[side]
        ):
            # Built from the stored records before this one joins them,
            # so the index holds it once.
            blocking = self.blocking
            tid = self.relation(side).insert(values, tid=tid)
            self._index(blocking, side, self.arrival_row(side, tid))
            self._union_find.find((side, tid))
        if self.metrics is not None:
            self.metrics.count("store.upserts")
        return tid

    def arrival_values(self, side: int, tid: int) -> Dict[str, object]:
        """The record's values as ingested (pre-repair); a copy."""
        return self.relation(side).arrival_values(tid)

    def arrival_row(self, side: int, tid: int) -> Row:
        """A read-only row over the arrival values (not a copy)."""
        return Row(tid, self.relation(side)._fetch(tid)[0])

    def view(self, side: int, arrival: bool) -> ValuesView:
        """One side's arrival or current values as the chase reads a
        relation (``schema`` + ``project``), off the row cache."""
        return ValuesView(self.relation(side), 0 if arrival else 1)

    def is_repaired(self, side: int, tid: int, attributes: Iterable[str]) -> bool:
        """Whether the record's current value differs from its arrival
        value on any of ``attributes``."""
        arrival, current = self.relation(side)._fetch(tid)
        return any(current[name] != arrival[name] for name in attributes)

    def repair(self, side: int, tid: int, changes: Dict[str, object]) -> None:
        """Overwrite the listed cells of the record's current values —
        one ``UPDATE`` of the record."""
        self.relation(side).set_values(tid, changes)

    def neighbors(self, side: int, tid: int) -> List[int]:
        """See :meth:`BlockedStore.neighbors`; traced and counted."""
        with self.tracer.span("store.probe", side=_SIDE_TAGS[side]):
            found = super().neighbors(side, tid)
        if self.metrics is not None:
            self.metrics.count("store.probes")
        return found

    # ------------------------------------------------------------------
    # Clusters (incremental union-find)
    # ------------------------------------------------------------------

    def find(self, node: Node) -> Node:
        """Root of ``node``'s cluster, registering it when unseen."""
        return _to_node(self._union_find.find(_to_db(node)))

    def union(self, a: Node, b: Node) -> bool:
        """Merge two clusters; True when they were distinct."""
        merged = self._union_find.union(_to_db(a), _to_db(b))
        if merged:
            self.merges += 1
        return merged

    def same(self, a: Node, b: Node) -> bool:
        """Whether two records are currently in one cluster."""
        return self._union_find.find(_to_db(a)) == self._union_find.find(
            _to_db(b)
        )

    def cluster_nodes(self, side: int, tid: int) -> Set[Node]:
        """All nodes in the cluster of the given record."""
        root = self._union_find.find((side, tid))
        return {_to_node(member) for member in self._union_find.members(root)}

    def cluster_of(self, side: int, tid: int) -> Cluster:
        """The record's cluster as a :class:`~repro.matching.clustering.Cluster`."""
        return _as_cluster(self.cluster_nodes(side, tid))

    def clusters(self, include_singletons: bool = False) -> List[Cluster]:
        """All clusters, deterministically ordered."""
        found = [
            _as_cluster({_to_node(member) for member in members})
            for members in self._union_find.all_clusters()
            if include_singletons or len(members) > 1
        ]
        found.sort(
            key=lambda c: (sorted(c.left_tids), sorted(c.right_tids))
        )
        return found

    # ------------------------------------------------------------------
    # Counters (memory-cached, flushed per commit)
    # ------------------------------------------------------------------

    @property
    def comparisons(self) -> int:
        return self._counters["comparisons"]

    @comparisons.setter
    def comparisons(self, value: int) -> None:
        self._counters["comparisons"] = value
        self._counters_dirty = True

    @property
    def merges(self) -> int:
        return self._counters["merges"]

    @merges.setter
    def merges(self, value: int) -> None:
        self._counters["merges"] = value
        self._counters_dirty = True

    # ------------------------------------------------------------------
    # Fingerprint
    # ------------------------------------------------------------------

    @property
    def spec_fingerprint(self) -> Optional[str]:
        return self._fingerprint

    @spec_fingerprint.setter
    def spec_fingerprint(self, value: Optional[str]) -> None:
        self._fingerprint = value
        write_meta(self.connection, "spec_fingerprint", value)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def commit(self) -> None:
        """Flush counters and commit the current transaction."""
        if self._counters_dirty:
            self.connection.executemany(
                "INSERT INTO counters (name, value) VALUES (?, ?) "
                "ON CONFLICT(name) DO UPDATE SET value = excluded.value",
                list(self._counters.items()),
            )
            self._counters_dirty = False
        self.connection.commit()
        if self.metrics is not None:
            self.metrics.count("store.commits")
            self.metrics.gauge("store.disk_bytes", self.disk_bytes())

    def rollback(self) -> None:
        """Discard the uncommitted transaction and drop stale caches: the
        rows and the blocking index (rebuilt on next use)."""
        self.connection.rollback()
        self.left.invalidate_cache()
        self.right.invalidate_cache()
        self._blocking = None
        self._counters = {
            name: int(read_meta_counter(self.connection, name))
            for name in _COUNTERS
        }
        self._counters_dirty = False
        self._fingerprint = read_meta(self.connection, "spec_fingerprint")

    def close(self, commit: bool = True) -> None:
        """Commit (by default) and close the connection."""
        if commit:
            self.commit()
        self.connection.close()

    def __enter__(self) -> "SQLiteMatchStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(commit=exc_type is None)

    def disk_bytes(self) -> int:
        """Bytes on disk, including the WAL and shared-memory sidecars."""
        # One stat per file: this runs after every commit.
        total = 0
        for suffix in ("", "-wal", "-shm"):
            try:
                total += os.stat(str(self.path) + suffix).st_size
            except FileNotFoundError:
                pass
        return total

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Cost and size counters, mirroring the in-memory store's shape."""
        clusters = self.clusters()
        return {
            "backend": self.backend_name,
            "path": str(self.path),
            "disk_bytes": self.disk_bytes(),
            "left_rows": len(self.left),
            "right_rows": len(self.right),
            "matched_clusters": len(clusters),
            "largest_cluster": max((c.size for c in clusters), default=0),
            "comparisons": self.comparisons,
            "merges": self.merges,
            "indexes": self.blocking.index_stats(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SQLiteMatchStore({str(self.path)!r}, "
            f"left={len(self.left)}, right={len(self.right)})"
        )


def read_meta_counter(connection, name: str) -> int:
    """One persisted counter's value (0 when the row is absent)."""
    row = connection.execute(
        "SELECT value FROM counters WHERE name = ?", (name,)
    ).fetchone()
    return 0 if row is None else int(row[0])
