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
    document of :func:`config_to_dict`: schema pair, target and the
    blocking passes), the owning spec's fingerprint and the ``release``
    of ``repro`` that wrote the tail.
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
postings; version 2 had no ``events``; versions 1 to 3 kept the blocking
recipe (RCKs and options) in ``meta.config``, not its passes.
:func:`upgrade` brings any of them to this version.
"""

from __future__ import annotations

import json
import sqlite3
from typing import Dict, Tuple

from repro.core.rck import RelativeKey
from repro.core.schema import ComparableLists, RelationSchema, SchemaPair
from repro.plan.blocking import build_blocking

#: Version of the on-disk layout; bumped on any incompatible change.
SQLITE_SCHEMA_VERSION = 4

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
    """Bring a version-1, -2 or -3 store to this version in one
    transaction: drop a version-1 on-disk blocking index, add the empty
    ``events`` tail, resolve the recipe in ``meta.config`` to its passes
    and stamp the version, so an older build refuses the file instead of
    probing postings that no longer follow its records, missing the
    records its tail holds or misreading its configuration.

    A version-3 file whose tail is not empty is refused unchanged: the
    tail replays only under the release that wrote it, and that release
    reads no version-4 file.
    """
    version = read_meta(connection, "schema_version")
    if version == "3":
        (pending,) = connection.execute("SELECT COUNT(*) FROM events").fetchone()
        if pending:
            raise ValueError(
                f"a version-3 store with {pending} event(s) not yet "
                f"checkpointed; open and close it once with repro "
                f"{read_meta(connection, 'release')} first"
            )
    connection.execute("BEGIN")
    with connection:  # commits, or rolls back what raised
        connection.execute("DROP TABLE IF EXISTS buckets")
        connection.execute("DROP TABLE IF EXISTS ranks")
        initialize(connection)
        raw = read_meta(connection, "config")
        if raw is not None:
            config = _passes_config(json.loads(raw))
            write_meta(connection, "config", json.dumps(config, sort_keys=True))
        write_meta(connection, "schema_version", str(SQLITE_SCHEMA_VERSION))


def _passes_config(recipe: Dict[str, object]) -> Dict[str, object]:
    """A version-1 to -3 ``meta.config`` document with its blocking
    recipe resolved to passes, by the function the plan's come from.
    Stores written before the recipe had a ``blocking`` section were all
    hash-blocked."""
    target, _ = config_from_dict(recipe)
    rcks = [
        RelativeKey.from_triples(target, [tuple(triple) for triple in triples])
        for triples in recipe["rcks"]
    ]
    blocking = recipe.get("blocking") or {}
    backend = build_blocking(
        rcks, int(recipe["key_length"]), recipe["encode_attributes"],
        blocking.get("backend", "hash"), int(blocking.get("window", 10)),
        [tuple(pair) for pair in blocking.get("key_pairs") or ()],
    )
    return config_to_dict(target, backend.to_dict())


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


def config_to_dict(
    target: ComparableLists, passes: Dict[str, object]
) -> Dict[str, object]:
    """A store's *configuration*, as ``meta.config`` holds it:
    everything needed to rebuild an empty store probing identically —
    the schema pair and target lists of ``target``, and the blocking
    ``passes`` (a :meth:`~repro.plan.blocking.BlockingBackend.to_dict`
    document, a store's ``passes``)."""
    pair = target.pair
    return {
        "schema": {
            side: {"name": schema.name, "attributes": list(schema.attribute_names)}
            for side, schema in (("left", pair.left), ("right", pair.right))
        },
        "target": {
            "left": list(target.left_list),
            "right": list(target.right_list),
        },
        "blocking": passes,
    }


def config_from_dict(
    data: Dict[str, object]
) -> Tuple[ComparableLists, Dict[str, object]]:
    """The target and the blocking passes document of a
    :func:`config_to_dict` document."""
    schema = data["schema"]
    pair = SchemaPair(
        RelationSchema(schema["left"]["name"], schema["left"]["attributes"]),
        RelationSchema(schema["right"]["name"], schema["right"]["attributes"]),
    )
    target = ComparableLists(pair, data["target"]["left"], data["target"]["right"])
    return target, data.get("blocking")
