"""The durable store's relational schema.

A store file is a *checkpoint* plus the *tail* of input events
ingested since.  Four tables hold the checkpoint — the state a
:class:`~repro.engine.store.MatchStore` keeps in RAM that cannot be
recomputed, normalized so a checkpoint writes only the rows changed
since the last one (cluster membership is materialized *beside* the
base records, so the two halves of the in-memory state load
independently, each from one scan, and a restart reads neither).  The
blocking index is not among them: a record's keys are a function of its
arrival values and the configuration, so the store derives the index
from ``records`` in memory.  The fifth, ``events``, is the tail:

``meta``
    Key/value strings: schema version, the store configuration (the JSON
    document of :func:`config_to_dict`: schema pair, target, RCK triples,
    key length, encoded attributes, blocking), the owning spec's
    fingerprint and the ``release`` of ``repro`` that wrote the tail.
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
    checkpoint that changed it rather than once per increment.
``events``
    One row per record a matcher ingested since the last checkpoint, in
    arrival order: ``seq`` (its position in the tail), ``side``, ``tid``
    and the *arrival* values as a JSON object.  The rest of the store
    after those arrivals is a deterministic function of them, the
    checkpoint and the spec, so opening a matcher replays the tail; a
    checkpoint empties it.

Version 1 also kept the blocking index on disk, in two tables of
postings; version 2 had no ``events``.  :func:`upgrade` brings either
to this version.
"""

from __future__ import annotations

import sqlite3
from typing import Dict

from repro.core.rck import RelativeKey
from repro.core.schema import ComparableLists, RelationSchema, SchemaPair

#: Version of the on-disk layout; bumped on any incompatible change.
SQLITE_SCHEMA_VERSION = 3

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
    """
    CREATE TABLE IF NOT EXISTS events (
        seq     INTEGER PRIMARY KEY,
        side    INTEGER NOT NULL,
        tid     INTEGER NOT NULL,
        arrival TEXT NOT NULL
    )
    """,
)


def initialize(connection: sqlite3.Connection) -> None:
    """Create the store tables in a fresh database (idempotent)."""
    for statement in _TABLES:
        connection.execute(statement)


def upgrade(connection: sqlite3.Connection) -> None:
    """Bring a version-1 or version-2 store to this version in one
    transaction: drop a version-1 on-disk blocking index, add the empty
    ``events`` tail and stamp the version, so an older build refuses the
    file instead of probing postings that no longer follow its records
    or missing the records its tail holds."""
    connection.execute("BEGIN")
    connection.execute("DROP TABLE IF EXISTS buckets")
    connection.execute("DROP TABLE IF EXISTS ranks")
    initialize(connection)
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


def config_to_dict(store) -> Dict[str, object]:
    """The store's *configuration*, as ``meta.config`` holds it:
    everything needed to rebuild an empty store probing identically —
    schema pair, target lists, RCK operator triples, key length, encoded
    attributes, blocking."""
    return {
        "schema": {
            "left": {
                "name": store.pair.left.name,
                "attributes": list(store.pair.left.attribute_names),
            },
            "right": {
                "name": store.pair.right.name,
                "attributes": list(store.pair.right.attribute_names),
            },
        },
        "target": {
            "left": list(store.target.left_list),
            "right": list(store.target.right_list),
        },
        "rcks": [
            [[atom.left, atom.right, atom.operator.name] for atom in key.atoms]
            for key in store.rcks
        ],
        "key_length": store.key_length,
        "encode_attributes": list(store.encode_attributes),
        "blocking": {
            "backend": store.blocking_backend,
            "window": store.window,
            "key_pairs": (
                [list(pair) for pair in store.key_pairs]
                if store.key_pairs
                else None
            ),
        },
    }


def config_from_dict(data: Dict[str, object]) -> Dict[str, object]:
    """The store constructor's keyword arguments (``target``, ``rcks``,
    ``key_length``, ``encode_attributes`` and the blocking configuration)
    from a :func:`config_to_dict` document.  Stores written before the
    blocking section existed were all hash-blocked, and open as such."""
    schema = data["schema"]
    pair = SchemaPair(
        RelationSchema(schema["left"]["name"], schema["left"]["attributes"]),
        RelationSchema(schema["right"]["name"], schema["right"]["attributes"]),
    )
    target = ComparableLists(pair, data["target"]["left"], data["target"]["right"])
    rcks = [
        RelativeKey.from_triples(target, [tuple(triple) for triple in triples])
        for triples in data["rcks"]
    ]
    blocking = data.get("blocking") or {}
    key_pairs = blocking.get("key_pairs")
    return {
        "target": target,
        "rcks": rcks,
        "key_length": int(data["key_length"]),
        "encode_attributes": tuple(data["encode_attributes"]),
        "blocking_backend": blocking.get("backend", "hash"),
        "window": int(blocking.get("window", 10)),
        "key_pairs": (
            [tuple(pair) for pair in key_pairs] if key_pairs else None
        ),
    }
