"""The durable store's relational schema.

Four tables hold the state a :class:`~repro.engine.store.MatchStore`
keeps in RAM that cannot be recomputed, normalized so a commit writes
only the rows its unit changed (cluster membership is materialized
*beside* the base records, so the two halves of the in-memory state
load independently, each from one scan, and a restart reads neither).
The blocking index is not among them: a record's keys are a function of
its arrival values and the configuration, so the store derives the
index from ``records`` in memory, as a JSON snapshot restore does:

``meta``
    Key/value strings: schema version, the store configuration (the same
    JSON document a snapshot carries: schema pair, target, RCK triples,
    key length, encoded attributes, blocking) and the owning spec's
    fingerprint.
``records``
    One row per ingested record, keyed ``(side, tid)``, holding both the
    *arrival* values (what blocking keys and consensus resolution work
    from) and the *current* values (the per-cluster consensus repairs) as
    JSON objects.
``clusters``
    Union-find with *direct root pointers*: every node stores its
    cluster root, so loading the clusters is one scan that never
    replays merge history; a commit rewrites every member of each
    cluster its unit created or merged.  (``clusters_root`` stays: the
    layout does not depend on which build wrote the file.)
``counters``
    The store's cost ledger (``comparisons``, ``merges``), written by a
    commit that changed it rather than once per increment.

Version 1 also kept the blocking index on disk, in two tables of
postings; :func:`upgrade_from_v1` drops them.
"""

from __future__ import annotations

import sqlite3

#: Version of the on-disk layout; bumped on any incompatible change.
SQLITE_SCHEMA_VERSION = 2

_TABLES = (
    """
    CREATE TABLE IF NOT EXISTS meta (
        key   TEXT PRIMARY KEY,
        value TEXT
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS records (
        side    INTEGER NOT NULL,
        tid     INTEGER NOT NULL,
        arrival TEXT NOT NULL,
        current TEXT NOT NULL,
        PRIMARY KEY (side, tid)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS clusters (
        side      INTEGER NOT NULL,
        tid       INTEGER NOT NULL,
        root_side INTEGER NOT NULL,
        root_tid  INTEGER NOT NULL,
        PRIMARY KEY (side, tid)
    )
    """,
    """
    CREATE INDEX IF NOT EXISTS clusters_root
        ON clusters (root_side, root_tid)
    """,
    """
    CREATE TABLE IF NOT EXISTS counters (
        name  TEXT PRIMARY KEY,
        value INTEGER NOT NULL
    )
    """,
)


def initialize(connection: sqlite3.Connection) -> None:
    """Create the store tables in a fresh database (idempotent)."""
    for statement in _TABLES:
        connection.execute(statement)


def upgrade_from_v1(connection: sqlite3.Connection) -> None:
    """Bring a version-1 store to this version in one transaction: drop
    its on-disk blocking index and stamp the version, so a version-1
    build refuses the file instead of probing postings that no longer
    follow its records."""
    connection.execute("BEGIN")
    connection.execute("DROP TABLE IF EXISTS buckets")
    connection.execute("DROP TABLE IF EXISTS ranks")
    write_meta(connection, "schema_version", str(SQLITE_SCHEMA_VERSION))
    connection.commit()


def read_meta(connection: sqlite3.Connection, key: str):
    """The ``meta`` value for ``key``, or ``None`` when absent."""
    row = connection.execute(
        "SELECT value FROM meta WHERE key = ?", (key,)
    ).fetchone()
    return None if row is None else row[0]


def write_meta(connection: sqlite3.Connection, key: str, value) -> None:
    """Upsert one ``meta`` row."""
    connection.execute(
        "INSERT INTO meta (key, value) VALUES (?, ?) "
        "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
        (key, value),
    )
