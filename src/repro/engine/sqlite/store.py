"""`SQLiteMatchStore`: :class:`~repro.engine.store.MatchStore` plus a write-back.

The durable store *is* the memory store — the same relations, union-find
and blocking index serve every read — with three additions:

* **open reads only ``meta``** (and the two-row ``counters`` ledger).
  The in-memory state loads on first use in two independent halves,
  each from one table scan: the *records* half (both relations and the
  blocking index, ``records`` in insertion order) and the *clusters*
  half (the union-find, from ``clusters``' direct root pointers).  A
  read that needs one half never pays for the other: ``cluster_of``
  after a reopen scans ``clusters`` only;
* **dirty marks** — :meth:`add`, :meth:`repair` and :meth:`union` mark
  the record, or the cluster root, they changed;
* **write-back at commit** — :meth:`commit` writes the unit's new
  records (one ``INSERT`` each, in arrival order), the records repaired
  since an earlier unit (one ``UPDATE`` each, however often the unit
  repaired them), every member of each changed cluster and the ledger,
  then commits.  One ingest or micro-batch is therefore one SQLite
  transaction, and a writer holds SQLite's lock only inside
  :meth:`commit`.  A step that raises rolls the unit back and re-raises.

:meth:`rollback` rolls the transaction back and drops both halves; the
next read reloads them from the file, so a failed unit leaves nothing
behind in memory either.  The blocking index is never persisted: a
record's keys are a function of its arrival values and the
configuration.  A second writer's commits reach this process only after
a rollback — one more reason a store has one writer.

Both stores produce the same matches, clusters, provenance and stats by
construction; ``tests/engine/test_sqlite_differential.py`` checks it.
:func:`save_store` makes any store durable by replaying it into a fresh
file, through the same write-back.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.rck import RelativeKey
from repro.core.schema import LEFT, RIGHT, ComparableLists
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.plan.blocking import DEFAULT_ENCODED_ATTRIBUTES
from repro.relations.relation import Row

from ..store import MatchStore, Node, _SIDE_TAGS, node_of
from .connection import connect
from .schema import (
    SQLITE_SCHEMA_VERSION,
    config_from_dict,
    config_to_dict,
    initialize,
    read_meta,
    upgrade_from_v1,
    write_meta,
)

_TAG_SIDES = {tag: side for side, tag in _SIDE_TAGS.items()}

#: A database's own file and its WAL sidecars, by suffix.
_FILES = ("", "-wal", "-shm")

#: The attributes each half of the in-memory state sets; reading one
#: that is not set loads its half.
_RECORDS_HALF = ("blocking", "left", "right", "_arrival", "_keys", "instances")
_CLUSTERS_HALF = ("_parent", "_members")


def _encode(row: Row) -> str:
    """A record's values as the ``records`` table holds them."""
    return json.dumps(row.values(), sort_keys=True)


class SQLiteMatchStore(MatchStore):
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
            # An empty store's halves are complete.
            self._start_records(self._configure(*requested))
            self._start_clusters()
        self.connection = connect(self.path)
        try:
            if existing:
                self._open_existing(*requested)
            else:
                self._create_fresh()
            self._read_ledger()
        except BaseException:
            self.connection.close()
            raise
        self._clean()

    # ------------------------------------------------------------------
    # Open / create
    # ------------------------------------------------------------------

    def _create_fresh(self) -> None:
        """Lay out the tables and persist the configuration."""
        initialize(self.connection)
        write_meta(
            self.connection, "schema_version", str(SQLITE_SCHEMA_VERSION)
        )
        write_meta(
            self.connection,
            "config",
            json.dumps(config_to_dict(self), sort_keys=True),
        )
        self.connection.executemany(
            "INSERT OR IGNORE INTO counters (name, value) VALUES (?, 0)",
            [("comparisons",), ("merges",)],
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
        # Stores written before the blocking section existed were all
        # hash-blocked; config_from_dict defaults accordingly.
        self._configure(**config_from_dict(json.loads(raw)))
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

    def _read_ledger(self) -> None:
        """The counters and the spec fingerprint as last committed."""
        counters = dict(self.connection.execute("SELECT name, value FROM counters"))
        self.comparisons = int(counters.get("comparisons", 0))
        self.merges = int(counters.get("merges", 0))
        self.spec_fingerprint = read_meta(self.connection, "spec_fingerprint")
        self._saved = (self.comparisons, self.merges, self.spec_fingerprint)

    # ------------------------------------------------------------------
    # The two halves, loaded on first use
    # ------------------------------------------------------------------

    def __getattr__(self, name: str):
        # Reached only for an attribute that is not set: a half that is
        # not loaded (yet, or since a rollback).
        for half, load in (
            (_RECORDS_HALF, self._load_records),
            (_CLUSTERS_HALF, self._load_clusters),
        ):
            if name in half:
                try:
                    load()
                except BaseException:
                    self._drop(half)
                    raise
                return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def _load_records(self) -> None:
        """Both relations from one scan of ``records`` in insertion order,
        and the blocking index derived from the arrival values."""
        self._start_records(self._new_blocking())
        arrivals = self._arrival
        for side, tid, arrival, current in self.connection.execute(
            "SELECT side, tid, arrival, current FROM records ORDER BY rowid"
        ):
            arrivals[side].adopt(tid, json.loads(arrival))
            self.relation(side).adopt(tid, json.loads(current))
            self._index(side, arrivals[side][tid])

    def _load_clusters(self) -> None:
        """The union-find from one scan of the direct root pointers."""
        self._start_clusters()
        parent, members = self._parent, self._members
        for side, tid, root_side, root_tid in self.connection.execute(
            "SELECT side, tid, root_side, root_tid FROM clusters"
        ):
            node, root = node_of(side, tid), node_of(root_side, root_tid)
            parent[node] = root
            members.setdefault(root, set()).add(node)

    def _drop(self, names: Sequence[str]) -> None:
        for name in names:
            self.__dict__.pop(name, None)

    # ------------------------------------------------------------------
    # Writes: the memory store's, marked for the write-back
    # ------------------------------------------------------------------

    def add(self, side: int, values: Dict[str, object], tid=None) -> int:
        """See :meth:`MatchStore.add`; traced, counted and marked new."""
        with self.tracer.span("store.upsert", side=_SIDE_TAGS[side]):
            tid = super().add(side, values, tid)
        self._added[side, tid] = None
        self._moved[node_of(side, tid)] = None
        if self.metrics is not None:
            self.metrics.count("store.upserts")
        return tid

    def repair(self, side: int, tid: int, changes: Dict[str, object]) -> None:
        """See :meth:`MatchStore.repair`; marks the record repaired."""
        super().repair(side, tid, changes)
        self._repaired[side, tid] = None

    def union(self, a: Node, b: Node) -> bool:
        """See :meth:`MatchStore.union`; marks the merged cluster."""
        if not super().union(a, b):
            return False
        self._moved[a] = None
        return True

    def neighbors(self, side: int, tid: int) -> List[int]:
        """See :meth:`MatchStore.neighbors`; traced and counted."""
        with self.tracer.span("store.probe", side=_SIDE_TAGS[side]):
            found = super().neighbors(side, tid)
        if self.metrics is not None:
            self.metrics.count("store.probes")
        return found

    def _clean(self) -> None:
        """Forget the dirty marks: the file holds what memory does.  (Each
        mark set is a dict, so the write-back's order is the order the
        unit made its changes in, whatever the hash seed.)"""
        #: New records, in arrival order.
        self._added: Dict[Tuple[int, int], None] = {}
        #: Records whose current values a repair wrote.
        self._repaired: Dict[Tuple[int, int], None] = {}
        #: Nodes whose cluster was created or merged into.
        self._moved: Dict[Node, None] = {}

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def commit(self) -> None:
        """Write back what changed since the last commit, then commit; on
        any error roll the unit back and re-raise."""
        try:
            self._write_back()
            self.connection.commit()
        except BaseException:
            self.rollback()
            raise
        self._clean()
        self._saved = (self.comparisons, self.merges, self.spec_fingerprint)
        if self.metrics is not None:
            self.metrics.count("store.commits")

    def _write_back(self) -> None:
        """One statement per kind of change: new records, repaired older
        records, every member of each changed cluster, the ledger."""
        write = self.connection.executemany
        added = self._added
        if added:
            write(
                "INSERT INTO records (side, tid, arrival, current) "
                "VALUES (?, ?, ?, ?)",
                [
                    (side, tid, _encode(self.arrival_row(side, tid)),
                     _encode(self.relation(side)[tid]))
                    for side, tid in added
                ],
            )
        repaired = [
            (_encode(self.relation(side)[tid]), side, tid)
            for side, tid in self._repaired
            if (side, tid) not in added
        ]
        if repaired:
            write(
                "UPDATE records SET current = ? WHERE side = ? AND tid = ?",
                repaired,
            )
        roots = dict.fromkeys(self.find(node) for node in self._moved)
        if roots:
            write(
                "INSERT INTO clusters (side, tid, root_side, root_tid) "
                "VALUES (?, ?, ?, ?) ON CONFLICT(side, tid) DO UPDATE SET "
                "root_side = excluded.root_side, root_tid = excluded.root_tid",
                [
                    (_TAG_SIDES[tag], tid, _TAG_SIDES[root[0]], root[1])
                    for root in roots
                    for tag, tid in sorted(self._members[root])
                ],
            )
        comparisons, merges, fingerprint = self._saved
        if (comparisons, merges) != (self.comparisons, self.merges):
            write(
                "INSERT INTO counters (name, value) VALUES (?, ?) "
                "ON CONFLICT(name) DO UPDATE SET value = excluded.value",
                [("comparisons", self.comparisons), ("merges", self.merges)],
            )
        if fingerprint != self.spec_fingerprint:
            write_meta(self.connection, "spec_fingerprint", self.spec_fingerprint)

    def rollback(self) -> None:
        """Discard the unit: roll the transaction back and drop both
        halves, which the next read reloads from the file."""
        self.connection.rollback()
        self._drop(_RECORDS_HALF + _CLUSTERS_HALF)
        self._read_ledger()
        self._clean()

    def close(self, commit: bool = True) -> None:
        """Commit (by default) and close the connection — closed even
        when the commit raises."""
        try:
            if commit:
                self.commit()
        finally:
            self.connection.close()

    def __enter__(self) -> "SQLiteMatchStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(commit=exc_type is None)

    def disk_bytes(self) -> int:
        """Bytes on disk, including the WAL and shared-memory sidecars."""
        total = 0
        for suffix in _FILES:
            try:
                total += os.stat(str(self.path) + suffix).st_size
            except FileNotFoundError:
                pass
        return total

    def stats(self) -> Dict[str, object]:
        """The memory store's stats, plus where the file is and its size."""
        stats = super().stats()
        return {
            "backend": stats.pop("backend"),
            "path": str(self.path),
            "disk_bytes": self.disk_bytes(),
            **stats,
        }


def save_store(store: MatchStore, path) -> None:
    """Write ``store`` (either kind, as it is in memory) to a new SQLite
    store file at ``path``; open it with ``SQLiteMatchStore(path)``.

    The copy is replayed into a fresh store — records (arrival values,
    then the repairs to their current values), clusters, counters and
    spec fingerprint — and committed once, so the commit's write-back is
    what writes it.  It is built at a sibling scratch path and renamed
    into place: ``path`` never holds a half-written store, and an
    existing ``path`` is refused.
    """
    path = Path(path)
    if path.exists():
        raise ValueError(f"refusing to overwrite existing file {path}")
    scratch = path.with_name(path.name + ".tmp")
    _remove(scratch)
    copy = SQLiteMatchStore(
        scratch,
        store.target,
        store.rcks,
        store.key_length,
        store.encode_attributes,
        store.blocking_backend,
        store.window,
        store.key_pairs,
    )
    try:
        for side in (LEFT, RIGHT):
            for row in store.relation(side):
                arrival = store.arrival_values(side, row.tid)
                copy.add(side, arrival, tid=row.tid)
                changes = {
                    name: value
                    for name, value in row.values().items()
                    if arrival[name] != value
                }
                if changes:
                    copy.repair(side, row.tid, changes)
        for members in store._members.values():
            first, *rest = sorted(members)
            for node in rest:
                copy.union(first, node)
        copy.comparisons, copy.merges = store.comparisons, store.merges
        copy.spec_fingerprint = store.spec_fingerprint
        copy.close()
    except BaseException:
        copy.close(commit=False)
        _remove(scratch)
        raise
    os.replace(scratch, path)


def _remove(path: Path) -> None:
    """Delete a database file and its WAL sidecars (a stale ``-wal``
    would otherwise be replayed into a new file at the same path)."""
    for suffix in _FILES:
        Path(str(path) + suffix).unlink(missing_ok=True)
