"""Incremental streaming entity-resolution engine.

Where a batch run (:meth:`repro.api.Workspace.match`) re-runs blocking,
comparison and enforcement from scratch, this subsystem matches records
*as they arrive*:

* :class:`~repro.engine.store.MatchStore` — the warm state: ingested
  records, the spec's blocking backend maintained incrementally, an
  incremental union-find over record identities, and cost counters;
* :class:`~repro.engine.matcher.IncrementalMatcher` — per-record ingest
  that probes only the affected index buckets and chases MDs on the
  delta, over the workspace's compiled plan;
* :mod:`~repro.engine.snapshot` — save/restore the store to disk so
  ingestion resumes exactly where it stopped;
* :mod:`~repro.engine.sqlite` — the durable backend: the memory store
  plus a write-back, at each commit, of what changed to one embedded
  SQLite database (WAL, one transaction per ingest, O(1) warm restart);
* ``repro engine ingest|stats|query|migrate`` — the CLI surface
  (:mod:`repro.cli`).

Typical use — :meth:`repro.api.Workspace.stream` is the way in::

    from repro.api import Workspace
    from repro.core.schema import RIGHT

    matcher = Workspace.from_file("spec.json").stream()
    matcher.bootstrap(credit, billing)          # warm-start from batch data
    result = matcher.ingest(RIGHT, new_record)  # then stream
    print(matcher.store.cluster_of(result.side, result.tid))
"""

from .matcher import BootstrapResult, IncrementalMatcher, IngestResult
from .snapshot import (
    SNAPSHOT_VERSION,
    load_store,
    save_store,
    store_from_dict,
    store_to_dict,
)
from .sqlite import (
    SQLITE_SCHEMA_VERSION,
    SQLiteMatchStore,
    is_sqlite_file,
    snapshot_to_sqlite,
    sqlite_to_snapshot,
)
from .store import MatchStore, Node, node_of

__all__ = [
    "BootstrapResult",
    "IncrementalMatcher",
    "IngestResult",
    "MatchStore",
    "Node",
    "SNAPSHOT_VERSION",
    "SQLITE_SCHEMA_VERSION",
    "SQLiteMatchStore",
    "is_sqlite_file",
    "load_store",
    "node_of",
    "save_store",
    "snapshot_to_sqlite",
    "sqlite_to_snapshot",
    "store_from_dict",
    "store_to_dict",
]
