"""`repro.engine.sqlite` — the durable SQLite-backed match store.

A persistence backend for the streaming engine that *is* the memory
store: :class:`SQLiteMatchStore` subclasses
:class:`~repro.engine.store.MatchStore` and writes back, at each commit,
what the unit changed — records with arrival and consensus values,
union-find cluster membership, cost counters, the owning spec's
fingerprint — to one embedded SQLite database (WAL journal mode, one
transaction per ingest or micro-batch).  Opening an existing database
is an O(1) warm restart: only ``meta`` is read; the records half (with
the blocking index, derived from the arrival values) and the clusters
half of the in-memory state each load once, on first use.

The backend is behaviorally identical to the in-memory store (same
matches, clusters, provenance, stats) — checked by the differential
suite in ``tests/engine/test_sqlite_differential.py``.  It is the
engine's one on-disk format: :func:`save_store` writes any store, an
in-memory one included, to a new store file.
"""

from .connection import SQLITE_MAGIC, connect, is_sqlite_file
from .schema import SQLITE_SCHEMA_VERSION
from .store import SQLiteMatchStore, save_store

__all__ = [
    "SQLITE_MAGIC",
    "SQLITE_SCHEMA_VERSION",
    "SQLiteMatchStore",
    "connect",
    "is_sqlite_file",
    "save_store",
]
