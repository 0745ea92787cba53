"""Durable blocking backends: hash postings and sorted-neighborhood ranks.

:class:`SQLiteHashBlockingBackend` mirrors
:class:`repro.plan.blocking.HashBlockingBackend` — same ``add`` /
``probe`` / ``candidates`` contract, same per-RCK multi-pass semantics —
but its posting lists live in SQLite rather than dictionaries.  The key
*derivation* is shared outright: each pass wraps the exact
:class:`~repro.plan.blocking.RCKIndex` the in-memory backend would
build, used purely for its compiled key functions, so a record hashes to
the same bucket in both backends by construction (the differential
suite then proves the probes agree).

:class:`SQLiteSNBlockingBackend` does the same for the rank-encoded
multi-pass sorted-neighborhood index
(:class:`~repro.plan.sn_index.WindowedSNIndex`): elements live in the
``ranks`` table, one row per (pass, block, sort key, side, tid) — pass
*i* keyed by the in-memory index's rotation *i* — and a probe retrieves
the record's block run per pass and scans the rank window with the
exact helper the in-memory index uses.

Derived keys are tuples of strings; they are stored JSON-encoded so the
``(idx, key, side)`` index makes a probe one range scan and a batch
candidates call one self-join.  (JSON *text* ordering is not tuple
ordering, so SN block runs are re-sorted on decoded tuples after
retrieval — block runs are window-sized neighborhoods, never the full
table.)
"""

from __future__ import annotations

import json
import sqlite3
from typing import Dict, List, Sequence, Tuple

from repro.core.schema import LEFT, RIGHT
from repro.plan.blocking import BlockingBackend, Pair, RCKIndex
from repro.plan.sn_index import (
    Entry,
    WindowedSNIndex,
    run_pairs,
    window_neighbors,
)
from repro.relations.relation import Row


def _encode_key(key: object) -> str:
    """A derived key (tuple of strings) as its canonical text form."""
    return json.dumps(list(key) if isinstance(key, tuple) else key)


class SQLiteHashBlockingBackend(BlockingBackend):
    """Multi-pass hash blocking with postings in the ``buckets`` table."""

    name = "sqlite-hash"
    family = "hash"

    def __init__(
        self, connection: sqlite3.Connection, indexes: Sequence[RCKIndex]
    ) -> None:
        if not indexes:
            raise ValueError("hash blocking needs at least one index")
        self.connection = connection
        #: The key-deriving index specs (their in-memory buckets unused).
        self.indexes: List[RCKIndex] = list(indexes)
        #: Per probing side, one statement over every pass: an index
        #: range scan per arm, bound to the record's key of that pass.
        self._probe_sql = tuple(
            " UNION ".join(
                f"SELECT tid FROM buckets WHERE idx = {position} "
                f"AND key = ? AND side = {other}"
                for position in range(len(self.indexes))
            )
            for other in (RIGHT, LEFT)
        )

    def indexed_under_its_keys(self) -> bool:
        """Whether the stored postings were written under these passes.

        A probe is only as good as the keys the postings were written
        under, and hash stores created before 2.0 under ``key_pairs``
        were indexed per RCK: every stored pass must be one of this
        backend's, and one posting sampled from each must re-derive from
        its record's arrival values.  A handful of point reads, whatever
        the store's size.
        """
        (top,) = self.connection.execute(
            "SELECT MAX(idx) FROM buckets"
        ).fetchone()
        if top is not None and top >= len(self.indexes):
            return False
        for position, index in enumerate(self.indexes):
            posting = self.connection.execute(
                "SELECT b.key, b.side, b.tid, r.arrival FROM buckets b "
                "JOIN records r ON r.side = b.side AND r.tid = b.tid "
                "WHERE b.idx = ? LIMIT 1",
                (position,),
            ).fetchone()
            if posting is not None:
                key, side, tid, arrival = posting
                row = Row(tid, json.loads(arrival))
                if _encode_key(index.key_for(side, row)) != key:
                    return False
        return True

    # -- streaming -----------------------------------------------------

    def keys_for(self, side: int, row: Row) -> Tuple[str, ...]:
        """Every pass's key of ``row`` in its stored (text) form: what
        :meth:`add` and :meth:`probe` take, so the store derives a
        record's keys once and holds them beside its cached row."""
        return tuple(
            _encode_key(index.key_for(side, row)) for index in self.indexes
        )

    def add(self, side: int, row: Row, keys: Sequence[str]) -> None:
        """Write one posting per pass for an arriving record."""
        self.connection.executemany(
            "INSERT INTO buckets (idx, key, side, tid) VALUES (?, ?, ?, ?)",
            [(position, key, side, row.tid) for position, key in enumerate(keys)],
        )

    def probe(self, side: int, row: Row, keys: Sequence[str]) -> List[int]:
        """Other-side tids sharing at least one bucket with ``row``."""
        return sorted(
            tid for (tid,) in self.connection.execute(self._probe_sql[side], keys)
        )

    # -- batch ---------------------------------------------------------

    def candidates(self, left=None, right=None) -> List[Pair]:
        """All cross-side pairs sharing a bucket, over every pass.

        The relations are accepted for interface compatibility but the
        join runs on the postings the store already maintains — by
        construction they index exactly the store's rows.
        """
        rows = self.connection.execute(
            "SELECT DISTINCT l.tid, r.tid FROM buckets l "
            "JOIN buckets r ON l.idx = r.idx AND l.key = r.key "
            "WHERE l.side = ? AND r.side = ?",
            (LEFT, RIGHT),
        ).fetchall()
        return sorted((left_tid, right_tid) for left_tid, right_tid in rows)

    # -- introspection -------------------------------------------------

    def index_stats(self) -> dict:
        """Bucket counts and largest bucket per pass, from SQL."""
        stats = {}
        for position, index in enumerate(self.indexes):
            buckets, largest = self.connection.execute(
                "SELECT COUNT(*), COALESCE(MAX(n), 0) FROM ("
                "  SELECT COUNT(*) AS n FROM buckets "
                "  WHERE idx = ? GROUP BY key"
                ")",
                (position,),
            ).fetchone()
            stats[index.name] = {"buckets": buckets, "largest_bucket": largest}
        return stats

    def describe(self) -> str:
        keys = ", ".join(
            "+".join(f"{left}~{right}" for left, right in index.pairs)
            for index in self.indexes
        )
        return f"sqlite-hash({len(self.indexes)} passes: {keys})"


class SQLiteSNBlockingBackend(BlockingBackend):
    """Sorted-neighborhood blocking with the rank runs in ``ranks``.

    Wraps a :class:`~repro.plan.sn_index.WindowedSNIndex` purely for its
    compiled key functions (its in-memory runs stay unused), so a record
    ranks into the same block with the same sort key in both backends by
    construction.
    """

    name = "sqlite-sorted-neighborhood"
    family = "sorted-neighborhood"

    def __init__(
        self, connection: sqlite3.Connection, index: WindowedSNIndex
    ) -> None:
        self.connection = connection
        #: The key-deriving index spec (its live runs unused).
        self.index = index
        self.pairs = index.pairs
        self.window = index.window
        #: Every pass's sort key of a row: what ``add`` and ``probe`` take.
        self.keys_for = index.keys_for

    def _block_run(self, position: int, block: str) -> List[Entry]:
        """One pass's block run as sorted (key, side, tid) entries."""
        run = [
            (tuple(json.loads(key)), side, tid)
            for key, side, tid in self.connection.execute(
                "SELECT key, side, tid FROM ranks "
                "WHERE idx = ? AND block = ?",
                (position, block),
            )
        ]
        run.sort()
        return run

    # -- streaming -----------------------------------------------------

    def add(self, side: int, row: Row, keys) -> None:
        """Rank one arriving record into its block run per pass."""
        self.connection.executemany(
            "INSERT INTO ranks (idx, block, key, side, tid) "
            "VALUES (?, ?, ?, ?, ?)",
            [
                (position, self.index.block_of(key), _encode_key(key), side, row.tid)
                for position, key in enumerate(keys)
            ],
        )

    def probe(self, side: int, row: Row, keys) -> List[int]:
        """Other-side tids within the record's rank window in any pass."""
        found = set()
        for position, key in enumerate(keys):
            run = self._block_run(position, self.index.block_of(key))
            found.update(
                window_neighbors(run, (key, side, row.tid), self.window)
            )
        return sorted(found)

    # -- batch ---------------------------------------------------------

    def candidates(self, left=None, right=None) -> List[Pair]:
        """All block-confined window pairs over the stored rank runs.

        The relations are accepted for interface compatibility but the
        scan runs on the runs the store already maintains — by
        construction they rank exactly the store's rows.
        """
        if self.window < 2:
            return []
        blocks: Dict[Tuple[int, str], List[Entry]] = {}
        for position, block, key, side, tid in self.connection.execute(
            "SELECT idx, block, key, side, tid FROM ranks"
        ):
            blocks.setdefault((position, block), []).append(
                (tuple(json.loads(key)), side, tid)
            )
        pairs = set()
        for run in blocks.values():
            run.sort()
            pairs.update(run_pairs(run, self.window))
        return sorted(pairs)

    # -- introspection -------------------------------------------------

    def index_stats(self) -> dict:
        """Per-pass block-run counts in the store's index-stats shape."""
        stats = {}
        for position, rotation in enumerate(self.index.passes):
            blocks, largest = self.connection.execute(
                "SELECT COUNT(*), COALESCE(MAX(n), 0) FROM ("
                "  SELECT COUNT(*) AS n FROM ranks "
                "  WHERE idx = ? GROUP BY block"
                ")",
                (position,),
            ).fetchone()
            name = "sn:" + "+".join(left for left, _ in rotation)
            stats[name] = {"buckets": blocks, "largest_bucket": largest}
        return stats

    def describe(self) -> str:
        detail = "+".join(f"{left}~{right}" for left, right in self.pairs)
        return (
            f"sorted-neighborhood(window={self.window}, rank-encoded in "
            f"sqlite, {self.index.pass_count} rotated pass(es) on {detail}; "
            "runs split at block boundaries)"
        )
