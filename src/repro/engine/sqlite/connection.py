"""SQLite connection setup for the durable match store.

One function, :func:`connect`, owns every pragma decision so the store,
the migration tool and the tests all open databases the same way:

* **WAL journal mode** — readers and the single writer do not block
  each other (``repro engine stats|query`` open a live store like any
  other client; there is no read-only mode), and a crash
  mid-transaction rolls back to the last committed ingest instead of
  corrupting the file.  Filesystems
  that cannot support WAL (some network mounts) silently keep SQLite's
  default journal; the store works either way, durability is just
  coarser.
* ``synchronous=NORMAL`` — the standard WAL pairing: fsync per
  checkpoint, not per commit, which is what makes one commit per ingest
  affordable.
* Python-level transactions — the connection keeps the ``sqlite3``
  default isolation (a transaction opens implicitly at the first write
  and ends at ``commit()``/``rollback()``), so
  :meth:`~repro.engine.sqlite.store.SQLiteMatchStore.commit` maps one
  ingest onto exactly one SQLite transaction.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path

#: The bytes every SQLite database file starts with.
SQLITE_MAGIC = b"SQLite format 3\x00"


def is_sqlite_file(path) -> bool:
    """Whether ``path`` exists and carries the SQLite file magic.

    The CLI uses this to tell a store from a JSON snapshot (or anything
    else) without trusting the file's extension.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            return handle.read(len(SQLITE_MAGIC)) == SQLITE_MAGIC
    except (OSError, IsADirectoryError):
        return False


def connect(path) -> sqlite3.Connection:
    """Open (or create) a store database with the canonical pragmas."""
    connection = sqlite3.connect(str(path), check_same_thread=False)
    # Executed outside any transaction (nothing has written yet).
    connection.execute("PRAGMA journal_mode=WAL")
    connection.execute("PRAGMA synchronous=NORMAL")
    connection.execute("PRAGMA foreign_keys=OFF")
    return connection
