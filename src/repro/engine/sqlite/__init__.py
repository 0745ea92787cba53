"""`repro.engine.sqlite` — the durable SQLite-backed match store.

A drop-in persistence backend for the streaming engine: the state a
:class:`~repro.engine.store.MatchStore` keeps in RAM — records with
arrival and consensus values, union-find cluster membership, cost
counters, the owning spec's fingerprint — lives in one embedded SQLite
database (WAL journal mode, one transaction per ingest).  Opening an
existing database is an O(1) warm restart: only the ``meta`` table is
read; state is paged in lazily as the matcher touches it.  The blocking
index is the memory store's, derived from the records' arrival values
on the first call that needs it.

The backend is behaviorally identical to the in-memory store (same
matches, clusters, provenance, stats) — proven by the differential suite
in ``tests/engine/test_sqlite_differential.py`` — and mutually
convertible with the JSON snapshot format via :mod:`.migrate` /
``repro engine migrate``.
"""

from .connection import SQLITE_MAGIC, connect, is_sqlite_file
from .migrate import (
    snapshot_to_sqlite,
    sqlite_from_dict,
    sqlite_to_snapshot,
)
from .schema import SQLITE_SCHEMA_VERSION
from .store import SQLiteMatchStore

__all__ = [
    "SQLITE_MAGIC",
    "SQLITE_SCHEMA_VERSION",
    "SQLiteMatchStore",
    "connect",
    "is_sqlite_file",
    "snapshot_to_sqlite",
    "sqlite_from_dict",
    "sqlite_to_snapshot",
]
