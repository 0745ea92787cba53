"""A store's observable state as one comparable document.

Shared by the suites that assert two stores hold the same thing — the
memory store and the SQLite store, a store and its ``save_store`` copy,
pruned and unpruned streams, the service and the offline path.
"""

from __future__ import annotations

from typing import Dict

from repro.core.schema import LEFT, RIGHT
from repro.engine.sqlite.schema import config_to_dict


def rows(store) -> Dict[str, list]:
    """Per side, ``[tid, arrival values, current values]`` for every
    record, in the store's order."""
    return {
        name: [
            [row.tid, store.arrival_values(side, row.tid), row.values()]
            for row in store.relation(side)
        ]
        for name, side in (("left", LEFT), ("right", RIGHT))
    }


def state(store) -> Dict[str, object]:
    """Configuration, fingerprint, records, clusters, counters and stats;
    the stats without what legitimately differs between two stores
    (backend, file path, size on disk, events since the last
    checkpoint)."""
    return {
        "config": config_to_dict(store),
        "spec_fingerprint": store.spec_fingerprint,
        "rows": rows(store),
        "clusters": [
            [["L", tid] for tid in sorted(cluster.left_tids)]
            + [["R", tid] for tid in sorted(cluster.right_tids)]
            for cluster in store.clusters()
        ],
        "counters": {"comparisons": store.comparisons, "merges": store.merges},
        "stats": {
            key: value
            for key, value in store.stats().items()
            if key not in ("backend", "path", "disk_bytes", "pending_events")
        },
    }
