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
* :mod:`~repro.engine.sqlite` — the durable backend and the one on-disk
  format: the memory store plus one embedded SQLite database (WAL)
  holding a checkpoint of its state and the tail of records ingested
  since — one transaction per ingest or micro-batch writes its records,
  a matcher replays the tail at open, so ingestion resumes exactly where
  it stopped (O(1) warm restart); ``save_store`` writes any store to a
  new file;
* ``repro engine ingest|stats|query`` — the CLI surface
  (:mod:`repro.cli`).

Typical use — :meth:`repro.api.Workspace.stream` is the way in::

    from repro.api import Workspace
    from repro.core.schema import RIGHT

    matcher = Workspace.from_file("spec.json").stream()
    matcher.ingest_batch(events)                # fill the store, one commit
    result = matcher.ingest(RIGHT, new_record)  # then stream
    print(matcher.store.cluster_of(result.side, result.tid))
"""

from .matcher import IncrementalMatcher, IngestResult
from .sqlite import (
    SQLITE_SCHEMA_VERSION,
    SQLiteMatchStore,
    is_sqlite_file,
    save_store,
)
from .store import MatchStore, Node, node_of

__all__ = [
    "IncrementalMatcher",
    "IngestResult",
    "MatchStore",
    "Node",
    "SQLITE_SCHEMA_VERSION",
    "SQLiteMatchStore",
    "is_sqlite_file",
    "node_of",
    "save_store",
]
