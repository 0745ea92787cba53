"""Snapshot a :class:`~repro.engine.store.MatchStore` to disk and back.

A snapshot is one JSON document holding everything needed to resume
ingestion cold: the schema pair, the target lists, the deduced RCKs (as
operator triples), every stored row with its tuple id, the identity
clusters, and the cost counters.  Inverted indexes are *not* serialized —
they are a pure function of the rows and RCKs, so restore rebuilds them by
re-adding every row, which also guarantees a restored store probes exactly
like the original.

Restore → ingest is equivalent to a cold run over the full sequence
(asserted by ``tests/engine/test_snapshot.py``): rows are saved with both
their *arrival* values (what the indexes and consensus resolution work
from) and their *current* values (the per-cluster consensus repairs), so
the resumed engine sees the same state a never-interrupted one would.

Values must be JSON-serializable (strings and ``None`` in all shipped
datasets).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict

from repro.core.rck import RelativeKey
from repro.core.schema import LEFT, RIGHT, ComparableLists, RelationSchema, SchemaPair

from .store import MatchStore

#: Current snapshot format version.
SNAPSHOT_VERSION = 1


def config_to_dict(store) -> Dict[str, object]:
    """The store's *configuration* — everything needed to rebuild an
    empty store probing identically: schema pair, target lists, RCK
    operator triples, key length, encoded attributes.

    Shared by the JSON snapshot format and the SQLite backend's ``meta``
    table (:mod:`repro.engine.sqlite`), so the two persistence formats
    stay mutually convertible.
    """
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
    """Rebuild core objects from a :func:`config_to_dict` document.

    Returns keyword arguments (``target``, ``rcks``, ``key_length``,
    ``encode_attributes``, and the blocking configuration) accepted by
    both store constructors.  Documents written before the blocking
    section existed restore as hash-blocked stores — exactly how those
    stores were built.
    """
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


def populate_store(store, data: Dict[str, object]):
    """Replay a snapshot document's rows, clusters and counters into an
    empty store (either backend); returns the store."""
    for side_name, side in (("left", LEFT), ("right", RIGHT)):
        for tid, arrival, current in data["rows"][side_name]:
            tid = store.add(side, arrival, tid=int(tid))
            row = store.relation(side)[tid]
            changes = {
                attribute: value
                for attribute, value in current.items()
                if row[attribute] != value
            }
            if changes:
                store.repair(side, tid, changes)
    for members in data["clusters"]:
        nodes = [(tag, int(tid)) for tag, tid in members]
        first = nodes[0]
        for node in nodes[1:]:
            store.union(first, node)
    counters = data["counters"]
    store.comparisons = int(counters["comparisons"])
    store.merges = int(counters["merges"])
    # Snapshots written before the spec API carry no fingerprint; they
    # restore with None and get stamped on their next spec-driven use.
    store.spec_fingerprint = data.get("spec_fingerprint")
    return store


def store_to_dict(store) -> Dict[str, object]:
    """The store (either backend) as a JSON-serializable dictionary."""
    document: Dict[str, object] = {
        "version": SNAPSHOT_VERSION,
        "spec_fingerprint": store.spec_fingerprint,
    }
    document.update(config_to_dict(store))
    document["rows"] = {
        "left": [
            [row.tid, store.arrival_values(LEFT, row.tid), row.values()]
            for row in store.left
        ],
        "right": [
            [row.tid, store.arrival_values(RIGHT, row.tid), row.values()]
            for row in store.right
        ],
    }
    document["clusters"] = [
        [["L", tid] for tid in sorted(cluster.left_tids)]
        + [["R", tid] for tid in sorted(cluster.right_tids)]
        for cluster in store.clusters()
    ]
    document["counters"] = {
        "comparisons": store.comparisons,
        "merges": store.merges,
    }
    return document


def store_from_dict(data: Dict[str, object]) -> MatchStore:
    """Rebuild an in-memory store from :func:`store_to_dict` output."""
    version = data.get("version")
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"unsupported snapshot version {version!r}; "
            f"this build reads version {SNAPSHOT_VERSION}"
        )
    store = MatchStore(**config_from_dict(data))
    return populate_store(store, data)


def save_store(store: MatchStore, path) -> None:
    """Write the store snapshot as JSON to ``path``, atomically.

    The document is written to a sibling temp file and renamed into
    place, so a crash mid-write never destroys the previous snapshot —
    the store is the engine's only persistent state.
    """
    path = Path(path)
    payload = json.dumps(store_to_dict(store), indent=1, sort_keys=True)
    scratch = path.with_name(path.name + ".tmp")
    scratch.write_text(payload, encoding="utf-8")
    os.replace(scratch, path)


def load_store(path) -> MatchStore:
    """Read a snapshot written by :func:`save_store`."""
    return store_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
