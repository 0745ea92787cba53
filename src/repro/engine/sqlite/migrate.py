"""Convert engine state between the JSON snapshot and SQLite formats.

Both directions go through the snapshot *document* —
:func:`~repro.engine.snapshot.store_to_dict` already reads any object
implementing the store interface, and
:func:`~repro.engine.snapshot.populate_store` replays a document into
any empty store — so a round trip is lossless by construction: rows
(arrival and current values, original tuple ids), clusters, counters and
the spec fingerprint all survive.

``sqlite →`` writes build the database at a scratch path and rename it
into place, mirroring :func:`~repro.engine.snapshot.save_store`'s
atomicity: a crash mid-migration never leaves a half-written store at
the destination.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict

from repro.engine.snapshot import (
    SNAPSHOT_VERSION,
    config_from_dict,
    populate_store,
    save_store,
)

from .store import SQLiteMatchStore


def sqlite_from_dict(data: Dict[str, object], path) -> SQLiteMatchStore:
    """Build a SQLite store at ``path`` from a snapshot document.

    The database is assembled at a sibling scratch path and renamed into
    place on success; ``path`` must not already exist.
    """
    version = data.get("version")
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"unsupported snapshot version {version!r}; "
            f"this build reads version {SNAPSHOT_VERSION}"
        )
    path = Path(path)
    if path.exists():
        raise ValueError(f"refusing to overwrite existing store {path}")
    scratch = path.with_name(path.name + ".tmp")
    if scratch.exists():
        scratch.unlink()
    store = SQLiteMatchStore(scratch, **config_from_dict(data))
    try:
        populate_store(store, data)
        store.close()  # commits
    except BaseException:
        store.close(commit=False)
        scratch.unlink(missing_ok=True)
        raise
    os.replace(scratch, path)
    return SQLiteMatchStore(path)


def snapshot_to_sqlite(snapshot_path, store_path) -> SQLiteMatchStore:
    """Convert a JSON snapshot file into a SQLite store file."""
    data = json.loads(Path(snapshot_path).read_text(encoding="utf-8"))
    return sqlite_from_dict(data, store_path)


def sqlite_to_snapshot(store_path, snapshot_path) -> None:
    """Convert a SQLite store file into a JSON snapshot file."""
    store = SQLiteMatchStore(store_path)
    try:
        save_store(store, snapshot_path)
    finally:
        store.close(commit=False)


__all__ = [
    "sqlite_from_dict",
    "snapshot_to_sqlite",
    "sqlite_to_snapshot",
]
