"""`SQLiteMatchStore`: :class:`~repro.engine.store.MatchStore` plus an input log.

The durable store *is* the memory store — the same relations, union-find
and blocking index serve every read — and its file is a *checkpoint*
(``records``, ``clusters``, ``counters``) plus the *tail* of input
events ingested since (``events``).  Under the paper's dynamic
semantics the arriving records are never updated, and everything the
engine derives from them — current values, clusters, counters — is a
deterministic function of the records in arrival order and the spec.
So a unit made only of matcher ingests is durable as its input:

* **open reads only ``meta``** (and the two-row ``counters`` ledger and
  the tail's length).  The in-memory state loads on first use in two
  independent halves, each from one table scan: the *records* half
  (both relations and the blocking index, ``records`` in insertion
  order) and the *clusters* half (the union-find, from ``clusters``'
  direct root pointers).  A read that needs one half never pays for the
  other: ``cluster_of`` after a reopen scans ``clusters`` only;
* **a unit of ingests commits its events** — :meth:`commit` writes one
  ``events`` row per record the unit's ingests added (side, tid,
  arrival values), then commits.  The matcher marks its ingests
  (:meth:`ingesting`); a change made outside one — ``save_store``,
  a fingerprint stamp, a direct :meth:`add` /
  :meth:`repair` / :meth:`union` — makes its unit a checkpoint;
* **dirty marks and a checkpoint** — :meth:`add`, :meth:`repair` and
  :meth:`union` mark the record, or the cluster root, they changed.  A
  checkpoint writes the records new since the last one (one ``INSERT``
  each, in arrival order), the older records repaired since (one
  ``UPDATE`` each, however often they were repaired), every member of
  each changed cluster and the ledger, empties ``events`` and stamps
  the ``release`` — in one transaction.  It runs for every unit that is
  not made only of ingests, for the unit that would bring the tail to
  :data:`CHECKPOINT_EVENTS` events, and at :meth:`close`;
* **replay** — a matcher built over the store (:meth:`attach`) runs the
  tail through its per-record ingest, event by event, and checkpoints;
  a tail written by another ``repro`` release is refused.  A store no
  matcher replayed serves its last checkpoint, at most
  ``CHECKPOINT_EVENTS - 1`` acknowledged events behind, and refuses
  writes.

A writer holds SQLite's lock only inside :meth:`commit`; a step that
raises rolls the unit back and re-raises.  :meth:`rollback` rolls the
transaction back, drops both halves (the next read reloads them from
the checkpoint) and, when a matcher is attached, replays the committed
tail, so a failed unit leaves memory at the last commit too.  The
blocking index is never persisted: a record's keys are a function of
its arrival values and the configuration.  A second writer's commits
reach this process only after a rollback — one more reason a store has
one writer.

Both stores produce the same matches, clusters, provenance and stats by
construction; ``tests/engine/test_sqlite_differential.py`` checks it.
:func:`save_store` makes any store durable by replaying it into a fresh
file, through the same checkpoint.
"""

from __future__ import annotations

import json
import os
import weakref
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import __version__
from repro.core.schema import LEFT, RIGHT, ComparableLists
from repro.matching.clustering import _SIDE_TAGS, Node, node_of
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.plan.blocking import BlockingBackend
from repro.relations.relation import Row

from ..store import MatchStore
from .connection import connect
from .schema import (
    SQLITE_SCHEMA_VERSION,
    config_from_dict,
    config_to_dict,
    initialize,
    read_meta,
    upgrade,
    write_meta,
)

_TAG_SIDES = {tag: side for side, tag in _SIDE_TAGS.items()}

#: The tail's bound: the unit that would bring it to this many events is
#: written as a checkpoint instead.  Replaying the longest tail, 1 023
#: events, and checkpointing it takes ~0.4 s for the benchmark stream on
#: a 2-vCPU Xeon host; it is also how far a reader may lag.
CHECKPOINT_EVENTS = 1024

#: A database's own file and its WAL sidecars, by suffix.
_FILES = ("", "-wal", "-shm")

#: The attributes each half of the in-memory state sets; reading one
#: that is not set loads its half.
_RECORDS_HALF = (
    "blocking", "_texts", "left", "right", "_arrival", "_keys", "_off_arrival", "instances",
)
_CLUSTERS_HALF = ("identities",)


def _encode(row: Row) -> str:
    """A record's values as the ``records`` table holds them."""
    return json.dumps(row.values(), sort_keys=True)


class SQLiteMatchStore(MatchStore):
    """Durable matcher state in one SQLite file.

    Creating a store requires ``target`` and ``blocking`` (the plan's
    backend; the store file keeps its passes in the ``meta`` table);
    opening an existing file needs only the path — the configuration is
    read from ``meta`` and, when the caller *does* pass one, verified to
    be the same document.
    """

    backend_name = "sqlite"

    def __init__(
        self,
        path,
        target: Optional[ComparableLists] = None,
        blocking: Optional[BlockingBackend] = None,
        tracer: Tracer = NULL_TRACER,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.path = Path(path)
        self.tracer = tracer
        self.metrics = metrics
        existing = self.path.exists() and self.path.stat().st_size > 0
        if not existing:
            # Refused before connect() writes a file: a failed creation
            # leaves no table-less database for every later open to fail on.
            if target is None or blocking is None:
                raise ValueError(
                    f"creating a new SQLite store at {self.path} requires "
                    "target and blocking"
                )
            # An empty store's halves are complete.
            super().__init__(target, blocking)
        self.connection = connect(self.path)
        try:
            if existing:
                self._open_existing(target, blocking)
            else:
                self._create_fresh()
            self._read_ledger()
        except BaseException:
            self.connection.close()
            raise
        #: The attached matcher's per-record ingest (:meth:`attach`), held
        #: weakly: the matcher holds the store, and a cycle would keep
        #: both, every record in RAM, until a full garbage collection.
        self._ingest: Optional[weakref.WeakMethod] = None
        #: Whether memory holds the committed tail (an empty one included).
        self._caught_up = not self._tail
        #: Whether a matcher ingest is running (:meth:`ingesting`).
        self._ingesting = False
        self._clean()
        self._clean_unit()

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
            json.dumps(config_to_dict(self.target, self.passes), sort_keys=True),
        )
        write_meta(self.connection, "release", __version__)
        self.connection.executemany(
            "INSERT OR IGNORE INTO counters (name, value) VALUES (?, 0)",
            [("comparisons",), ("merges",)],
        )
        self.connection.commit()

    def _open_existing(
        self, target: Optional[ComparableLists], blocking: Optional[BlockingBackend]
    ) -> None:
        """Read the configuration (upgrading an older file first) and,
        when one is requested, refuse a file whose document differs."""
        version = read_meta(self.connection, "schema_version")
        if version in ("1", "2", "3"):
            upgrade(self.connection)
        elif version != str(SQLITE_SCHEMA_VERSION):
            raise ValueError(
                f"unsupported store schema version {version!r} in "
                f"{self.path}; this build reads version "
                f"{SQLITE_SCHEMA_VERSION}"
            )
        raw = read_meta(self.connection, "config")
        if raw is None:
            raise ValueError(f"store {self.path} has no configuration")
        stored = json.loads(raw)
        self.target, self.passes = config_from_dict(stored)
        self.pair = self.target.pair
        requested = config_to_dict(
            self.target if target is None else target,
            self.passes if blocking is None else blocking.to_dict(),
        )
        if requested != stored:
            raise ValueError(
                f"store {self.path} was created with a different "
                "configuration (target/blocking passes) than requested"
            )

    def _read_ledger(self) -> None:
        """The counters and the spec fingerprint as last checkpointed, the
        length of the tail since and the release that wrote it."""
        connection = self.connection
        counters = dict(connection.execute("SELECT name, value FROM counters"))
        self.comparisons = int(counters.get("comparisons", 0))
        self.merges = int(counters.get("merges", 0))
        self.spec_fingerprint = read_meta(connection, "spec_fingerprint")
        self._saved = (self.comparisons, self.merges, self.spec_fingerprint)
        (self._tail,) = connection.execute("SELECT COUNT(*) FROM events").fetchone()
        self._release = read_meta(connection, "release")

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
        self._start_records(BlockingBackend.from_dict(self.passes))
        arrivals, shared = self._arrival, self._shared
        for side, tid, arrival, current in self.connection.execute(
            "SELECT side, tid, arrival, current FROM records ORDER BY rowid"
        ):
            # Each name-keyed record is read into a positional row, its
            # texts the store's objects; an unrepaired record's current
            # row is its arrival row.
            arrival_values = shared(json.loads(arrival))
            current_values = (
                arrival_values if current == arrival else shared(json.loads(current))
            )
            arrivals[side].adopt(tid, arrival_values)
            self.relation(side).adopt(tid, current_values)
            self._index(side, arrivals[side][tid])
            if current_values is not arrival_values:
                moved = sum(
                    bit
                    for name, bit in self._bits[side].items()
                    if current_values.get(name) != arrival_values.get(name)
                )
                if moved:
                    self._off_arrival[side][tid] = moved

    def _load_clusters(self) -> None:
        """The union-find from one scan of the direct root pointers."""
        self._start_clusters()
        adopt = self.identities.adopt
        for side, tid, root_side, root_tid in self.connection.execute(
            "SELECT side, tid, root_side, root_tid FROM clusters"
        ):
            adopt(node_of(side, tid), node_of(root_side, root_tid))

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
        if self._ingesting:
            self._events.append((side, tid))
        else:
            self._foreign = True
        if self.metrics is not None:
            self.metrics.count("store.upserts")
        return tid

    def repair(self, side: int, tid: int, changes: Dict[str, object]) -> None:
        """See :meth:`MatchStore.repair`; marks the record repaired."""
        super().repair(side, tid, changes)
        self._repaired[side, tid] = None
        self._foreign |= not self._ingesting

    def union(self, a: Node, b: Node) -> bool:
        """See :meth:`MatchStore.union`; marks the merged cluster."""
        if not super().union(a, b):
            return False
        self._moved[a] = None
        self._foreign |= not self._ingesting
        return True

    def neighbors(self, side: int, tid: int) -> List[int]:
        """See :meth:`MatchStore.neighbors`; traced and counted."""
        with self.tracer.span("store.probe", side=_SIDE_TAGS[side]):
            found = super().neighbors(side, tid)
        if self.metrics is not None:
            self.metrics.count("store.probes")
        return found

    def _clean(self) -> None:
        """Forget the dirty marks: the checkpoint holds what memory does.
        (Each mark set is a dict, so the write-back's order is the order
        the changes were made in, whatever the hash seed.)"""
        #: New records, in arrival order.
        self._added: Dict[Tuple[int, int], None] = {}
        #: Records whose current values a repair wrote.
        self._repaired: Dict[Tuple[int, int], None] = {}
        #: Nodes whose cluster was created or merged into.
        self._moved: Dict[Node, None] = {}
        #: The arrival values of the logged records, as their events rows
        #: hold them (and their ``records`` rows will).
        self._encoded: Dict[Tuple[int, int], str] = {}

    def _clean_unit(self) -> None:
        """Start a unit: no events logged, nothing changed outside an
        ingest."""
        #: The records this unit's ingests added, in arrival order.
        self._events: List[Tuple[int, int]] = []
        #: Whether the unit changed the store outside a matcher ingest.
        self._foreign = False

    @contextmanager
    def ingesting(self):
        """See :meth:`MatchStore.ingesting`: the record the body adds is
        the unit's next event, and its repairs and unions are the
        ingest's own."""
        self._ingesting = True
        try:
            yield
        finally:
            self._ingesting = False

    def _dirty(self) -> bool:
        """Whether memory holds a change the checkpoint does not."""
        return bool(
            self._added
            or self._repaired
            or self._moved
            or (self.comparisons, self.merges, self.spec_fingerprint) != self._saved
        )

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def attach(self, ingest: Callable[[int, Dict[str, object], int], object]) -> None:
        """See :meth:`MatchStore.attach`: replay the committed tail through
        ``ingest`` when memory does not hold it yet, then checkpoint.  The
        store keeps ``ingest`` (a bound method) weakly, to replay the tail
        again after a :meth:`rollback` while its matcher lives.

        A tail written by another ``repro`` release is refused with
        ``ValueError``: its replay is only defined under the release that
        acknowledged it.
        """
        self._ingest = weakref.WeakMethod(ingest)
        if not self._caught_up:
            self._replay()
            self.commit()  # a unit of no ingest: the checkpoint

    def _replay(self) -> None:
        """Run the committed tail through the attached ingest, in order;
        nothing is logged again."""
        if self._release != __version__:
            raise ValueError(
                f"store {self.path} holds {self._tail} event(s) ingested by "
                f"repro {self._release} and not yet checkpointed; this is repro "
                f"{__version__}: open and close the store once with repro "
                f"{self._release} first"
            )
        events = self.connection.execute(
            "SELECT side, tid, arrival FROM events ORDER BY seq"
        ).fetchall()
        ingest = self._ingest()
        with self.tracer.span("store.replay", events=len(events)):
            for side, tid, arrival in events:
                ingest(side, json.loads(arrival), tid)
        self._clean_unit()
        self._caught_up = True

    def commit(self) -> None:
        """Make the unit durable; on any error roll it back and re-raise.

        A unit made only of matcher ingests commits its events.  Any other
        unit — an empty one included, which folds the tail in — and the
        one that would bring the tail to :data:`CHECKPOINT_EVENTS` commit
        a checkpoint (none when nothing changed since the last).  A store
        whose tail no matcher replayed refuses to write.
        """
        events = self._events
        if not self._caught_up:
            if events or self._dirty():
                raise ValueError(
                    f"store {self.path} has {self._tail} pending event(s) that "
                    "no matcher replayed; build one over it "
                    "(Workspace.stream()) before writing"
                )
            return
        logged = bool(
            events
            and not self._foreign
            and self.spec_fingerprint == self._saved[2]
            and self._tail + len(events) < CHECKPOINT_EVENTS
        )
        try:
            if logged:
                self._log(events)
            elif self._tail or self._dirty():
                self._checkpoint()
            else:
                self.connection.commit()
        except BaseException:
            self.rollback()
            raise
        self._clean_unit()
        if self.metrics is not None:
            self.metrics.count("store.commits")
            self.metrics.gauge("store.pending_events", self._tail)

    def _log(self, events: List[Tuple[int, int]]) -> None:
        """Commit the unit's events: one row per record its ingests added."""
        connection = self.connection
        encoded = self._encoded
        for side, tid in events:
            encoded[side, tid] = _encode(self.arrival_row(side, tid))
        connection.executemany(
            "INSERT INTO events (seq, side, tid, arrival) VALUES (?, ?, ?, ?)",
            [
                (self._tail + position, side, tid, encoded[side, tid])
                for position, (side, tid) in enumerate(events)
            ],
        )
        if self._release != __version__:
            # The tail's first unit after a checkpoint by another release.
            write_meta(connection, "release", __version__)
        connection.commit()
        self._tail += len(events)
        self._release = __version__

    def _checkpoint(self) -> None:
        """Write back what changed since the last checkpoint, empty the
        tail and stamp the release, in one transaction."""
        with self.tracer.span("store.checkpoint", events=self._tail) as span:
            records, clusters = self._write_back()
            span.set("records", records)
            span.set("clusters", clusters)
            connection = self.connection
            connection.execute("DELETE FROM events")
            write_meta(connection, "release", __version__)
            connection.commit()
        self._tail = 0
        self._release = __version__
        self._clean()
        self._saved = (self.comparisons, self.merges, self.spec_fingerprint)
        if self.metrics is not None:
            self.metrics.count("store.checkpoints")

    def _write_back(self) -> Tuple[int, int]:
        """One statement per kind of change: new records, repaired older
        records, every member of each changed cluster, the ledger.
        Returns the ``records`` and ``clusters`` rows written."""
        write = self.connection.executemany
        added, repaired, encoded = self._added, self._repaired, self._encoded
        if added:
            rows = []
            for record in added:
                side, tid = record
                arrival = encoded.get(record) or _encode(self.arrival_row(side, tid))
                # (a record no repair touched still holds its arrival values)
                current = (
                    _encode(self.relation(side)[tid]) if record in repaired else arrival
                )
                rows.append((side, tid, arrival, current))
            write(
                "INSERT INTO records (side, tid, arrival, current) "
                "VALUES (?, ?, ?, ?)",
                rows,
            )
        repaired = [
            (_encode(self.relation(side)[tid]), side, tid)
            for side, tid in repaired
            if (side, tid) not in added
        ]
        if repaired:
            write(
                "UPDATE records SET current = ? WHERE side = ? AND tid = ?",
                repaired,
            )
        identities = self.identities
        roots = dict.fromkeys(identities.find(node) for node in self._moved)
        members = [
            (_TAG_SIDES[tag], tid, _TAG_SIDES[root[0]], root[1])
            for root in roots
            for tag, tid in sorted(identities.members[root])
        ]
        if members:
            write(
                "INSERT INTO clusters (side, tid, root_side, root_tid) "
                "VALUES (?, ?, ?, ?) ON CONFLICT(side, tid) DO UPDATE SET "
                "root_side = excluded.root_side, root_tid = excluded.root_tid",
                members,
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
        return len(added) + len(repaired), len(members)

    def rollback(self) -> None:
        """Discard the unit: roll the transaction back, drop both halves,
        which the next read reloads from the checkpoint, and replay the
        committed tail through the attached matcher."""
        self.connection.rollback()
        self._drop(_RECORDS_HALF + _CLUSTERS_HALF)
        self._read_ledger()
        self._clean()
        self._clean_unit()
        self._caught_up = not self._tail
        if not self._caught_up and self._ingest is not None and self._ingest():
            self._replay()

    def close(self, commit: bool = True) -> None:
        """Commit (by default) and close the connection — closed even
        when the commit raises.  The matcher commits each of its units,
        so what is left to commit is an empty unit: the checkpoint.
        ``commit=False`` discards the open unit and leaves the tail for
        the next matcher to replay."""
        try:
            if commit:
                self.commit()
        finally:
            self.connection.close()

    def __enter__(self) -> "SQLiteMatchStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(commit=exc_type is None)

    @property
    def pending_events(self) -> int:
        """Events committed since the last checkpoint: the tail a matcher
        replays at open, and how far a reader's view lags."""
        return self._tail

    def is_pending(self, side: int, tid: int) -> bool:
        """Whether record ``(side, tid)`` is in the tail: acknowledged,
        but in no checkpoint a reader serves yet."""
        return self._tail > 0 and self.connection.execute(
            "SELECT 1 FROM events WHERE side = ? AND tid = ? LIMIT 1", (side, tid)
        ).fetchone() is not None

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
        """The memory store's stats, plus where the file is, its size and
        the events committed since the last checkpoint."""
        stats = super().stats()
        return {
            "backend": stats.pop("backend"),
            "path": str(self.path),
            "disk_bytes": self.disk_bytes(),
            "pending_events": self.pending_events,
            **stats,
        }


def save_store(store: MatchStore, path) -> None:
    """Write ``store`` (either kind, as it is in memory) to a new SQLite
    store file at ``path``; open it with ``SQLiteMatchStore(path)``.

    The copy is replayed into a fresh store — records (arrival values,
    then the repairs to their current values), clusters, counters and
    spec fingerprint — and closed, so one checkpoint's write-back is
    what writes it.  It is built at a sibling scratch path and renamed
    into place: ``path`` never holds a half-written store, and an
    existing ``path`` is refused, as is a durable store whose tail no
    matcher replayed (memory holds its last checkpoint only).
    """
    path = Path(path)
    if path.exists():
        raise ValueError(f"refusing to overwrite existing file {path}")
    if not getattr(store, "_caught_up", True):
        raise ValueError(
            f"store {store.path} has {store.pending_events} pending event(s) that no "
            "matcher replayed; build one over it (Workspace.stream()) first"
        )
    scratch = path.with_name(path.name + ".tmp")
    _remove(scratch)
    copy = SQLiteMatchStore(
        scratch, store.target, BlockingBackend.from_dict(store.passes)
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
        for members in store.identities.members.values():
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
