"""A relation view over the ``records`` table: rows read lazily, written through.

:class:`SQLiteRelation` duck-types the parts of
:class:`repro.relations.relation.Relation` the engine uses — insertion,
id lookup, cell updates, iteration — against one side of the ``records``
table.  Two properties make the durable store behave exactly like the
in-memory one:

* **lazy reads** — opening a store loads *nothing*; a row is fetched
  (and then cached) the first time it is touched, so a warm restart is
  O(1) regardless of store size;
* **write-through mutation** — :meth:`insert` and :meth:`set_values`
  update the cache and the table in the same (uncommitted) transaction,
  so a rollback leaves both consistent.

Unlike the base ``Relation``, each record carries *two* value sets: the
arrival values (immutable after insert; blocking keys and consensus
resolution derive from them) and the current values (rewritten by
cluster consensus repairs, one ``UPDATE`` per repaired record).  A cache
entry holds both; a rollback drops them, as it drops the store's blocking
index.  ``Row``
views and the copying accessors hand out copies; the chase reads the
cached dicts in place through a :class:`ValuesView` and never writes, so
the only mutation path is :meth:`set_values` — exactly the contract
:class:`~repro.engine.matcher.IncrementalMatcher` relies on.
"""

from __future__ import annotations

import json
import sqlite3
from typing import Dict, Iterator, List, Optional, Sequence

from repro.core.schema import RelationSchema
from repro.relations.relation import Row


class SQLiteRelation:
    """One side's records, backed by the ``records`` table."""

    def __init__(
        self, connection: sqlite3.Connection, schema: RelationSchema, side: int
    ) -> None:
        self.connection = connection
        self.schema = schema
        self.side = side
        self._names = frozenset(schema.attribute_names)
        #: tid -> [arrival values, current values]; populated lazily.
        self._cache: Dict[int, list] = {}
        self._count: Optional[int] = None
        self._next_tid: Optional[int] = None

    # ------------------------------------------------------------------
    # Mutation (write-through)
    # ------------------------------------------------------------------

    def insert(
        self, values: Dict[str, object], tid: Optional[int] = None
    ) -> int:
        """Insert a record; arrival and current values start identical."""
        self._check(values)
        if tid is None:
            tid = self._allocate_tid()
        elif tid in self:
            raise ValueError(f"tuple id {tid} already present")
        complete = {
            name: values.get(name) for name in self.schema.attribute_names
        }
        payload = json.dumps(complete, sort_keys=True)
        self.connection.execute(
            "INSERT INTO records (side, tid, arrival, current) "
            "VALUES (?, ?, ?, ?)",
            (self.side, tid, payload, payload),
        )
        self._cache[tid] = [dict(complete), complete]
        if self._count is not None:
            self._count += 1
        if self._next_tid is not None:
            self._next_tid = max(self._next_tid, tid + 1)
        return tid

    def set_values(self, tid: int, changes: Dict[str, object]) -> None:
        """Update the listed cells of the *current* values (arrival is
        immutable): one write of the record, however many cells changed."""
        self._check(changes)
        current = self._fetch(tid)[1]
        current.update(changes)
        self.connection.execute(
            "UPDATE records SET current = ? WHERE side = ? AND tid = ?",
            (json.dumps(current, sort_keys=True), self.side, tid),
        )

    def _check(self, names) -> None:
        if not self._names.issuperset(names):
            raise KeyError(
                f"attributes {sorted(set(names) - self._names)} not in "
                f"schema {self.schema.name!r}"
            )

    # ------------------------------------------------------------------
    # Access (lazy, cached)
    # ------------------------------------------------------------------

    def _fetch(self, tid: int) -> list:
        cached = self._cache.get(tid)
        if cached is not None:
            return cached
        row = self.connection.execute(
            "SELECT arrival, current FROM records WHERE side = ? AND tid = ?",
            (self.side, tid),
        ).fetchone()
        if row is None:
            raise KeyError(
                f"no tuple with id {tid} in {self.schema.name!r}"
            )
        entry = [json.loads(row[0]), json.loads(row[1])]
        self._cache[tid] = entry
        return entry

    def arrival_values(self, tid: int) -> Dict[str, object]:
        """The record's values as ingested, before any consensus repair."""
        return dict(self._fetch(tid)[0])

    def __getitem__(self, tid: int) -> Row:
        return Row(tid, dict(self._fetch(tid)[1]))

    def __contains__(self, tid: object) -> bool:
        if tid in self._cache:
            return True
        row = self.connection.execute(
            "SELECT 1 FROM records WHERE side = ? AND tid = ?",
            (self.side, tid),
        ).fetchone()
        return row is not None

    def __iter__(self) -> Iterator[Row]:
        """All rows in insertion order (matching ``Relation`` iteration);
        fetched in one scan, then cached."""
        for tid, arrival, current in self.connection.execute(
            "SELECT tid, arrival, current FROM records "
            "WHERE side = ? ORDER BY rowid",
            (self.side,),
        ).fetchall():
            if tid not in self._cache:
                self._cache[tid] = [json.loads(arrival), json.loads(current)]
            yield Row(tid, dict(self._cache[tid][1]))

    def __len__(self) -> int:
        if self._count is None:
            self._count = self.connection.execute(
                "SELECT COUNT(*) FROM records WHERE side = ?", (self.side,)
            ).fetchone()[0]
        return self._count

    def tids(self) -> List[int]:
        """All tuple ids, in insertion order."""
        return [
            row[0]
            for row in self.connection.execute(
                "SELECT tid FROM records WHERE side = ? ORDER BY rowid",
                (self.side,),
            ).fetchall()
        ]

    def rows(self) -> List[Row]:
        """All rows, in insertion order."""
        return list(self)

    def _allocate_tid(self) -> int:
        if self._next_tid is None:
            row = self.connection.execute(
                "SELECT MAX(tid) FROM records WHERE side = ?", (self.side,)
            ).fetchone()
            self._next_tid = 0 if row[0] is None else row[0] + 1
        tid = self._next_tid
        self._next_tid = tid + 1
        return tid

    def invalidate_cache(self) -> None:
        """Drop cached rows (used after a rollback)."""
        self._cache.clear()
        self._count = None
        self._next_tid = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SQLiteRelation({self.schema.name!r}, side={self.side})"


class ValuesView:
    """A relation's arrival (``which`` 0) or current (1) values as the
    chase reads a ``Relation`` — ``schema`` and ``project`` — straight
    off the cached rows, copying none."""

    def __init__(self, relation: SQLiteRelation, which: int) -> None:
        self.schema = relation.schema
        self._relation, self._which = relation, which

    def project(self, tids, attributes: Sequence[str]) -> List[object]:
        """See :meth:`repro.relations.relation.Relation.project` (rows
        are schema-complete: an unknown attribute is the ``KeyError`` of
        the first row read)."""
        fetch, which = self._relation._fetch, self._which
        return [
            values[attribute]
            for values in [fetch(tid)[which] for tid in tids]
            for attribute in attributes
        ]
