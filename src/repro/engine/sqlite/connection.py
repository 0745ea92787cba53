"""SQLite connection setup for the durable match store.

One function, :func:`connect`, owns every pragma decision so the store,
:func:`~repro.engine.sqlite.store.save_store` and the tests all open
databases the same way.  The pragma set (the README's "Persistence &
durability" section carries the same table):

================  ========  ==============================================
Pragma            Value     Why
================  ========  ==============================================
``journal_mode``  WAL       Readers (``repro engine stats|query``) and the
                            one writer do not block each other, and a
                            crash mid-transaction rolls back to the last
                            commit.  A filesystem without WAL support
                            keeps SQLite's default journal: the store
                            works, durability is coarser.
``synchronous``   NORMAL    The WAL pairing: fsync per checkpoint, not per
                            commit, which makes a commit per ingest
                            affordable.
``foreign_keys``  OFF       The tables reference each other by
                            convention only.
``busy_timeout``  5000 ms   ``sqlite3.connect``'s default ``timeout=5.0``:
                            a commit that meets another writer waits this
                            long, then raises ``database is locked``.
================  ========  ==============================================

The connection keeps the ``sqlite3`` default isolation (a transaction
opens implicitly at the first write and ends at ``commit()`` /
``rollback()``), so
:meth:`~repro.engine.sqlite.store.SQLiteMatchStore.commit` maps one
ingest onto exactly one SQLite transaction.

``journal_mode`` is a property of the *file*, so no pragma runs on an
existing file before it is confirmed to be a store: a foreign database
is refused as it was found.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path

from .schema import read_meta

#: The bytes every SQLite database file starts with.
SQLITE_MAGIC = b"SQLite format 3\x00"


def is_sqlite_file(path) -> bool:
    """Whether ``path`` exists and carries the SQLite file magic (a
    store or any other SQLite database), whatever its extension."""
    path = Path(path)
    try:
        with path.open("rb") as handle:
            return handle.read(len(SQLITE_MAGIC)) == SQLITE_MAGIC
    except (OSError, IsADirectoryError):
        return False


def connect(path) -> sqlite3.Connection:
    """Open (or create) a store database with the canonical pragmas.

    An existing non-empty file must already be a store — a ``meta`` row
    holding ``schema_version`` — or it is refused with ``ValueError``
    before any pragma could change it.
    """
    path = Path(path)
    existing = path.exists() and path.stat().st_size > 0
    connection = sqlite3.connect(str(path), check_same_thread=False)
    if existing:
        try:
            reason = (
                None
                if read_meta(connection, "schema_version") is not None
                else "no schema_version in meta"
            )
        except sqlite3.DatabaseError as error:
            reason = str(error)
        if reason is not None:
            connection.close()
            raise ValueError(f"{path} is not a SQLite store ({reason})")
    # Executed outside any transaction (nothing has written yet).
    connection.execute("PRAGMA journal_mode=WAL")
    connection.execute("PRAGMA synchronous=NORMAL")
    connection.execute("PRAGMA foreign_keys=OFF")
    return connection
