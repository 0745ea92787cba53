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
        "config": config_to_dict(store.target, store.passes),
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


def recipe_config(workspace) -> Dict[str, object]:
    """The ``meta.config`` a version-1 to -3 store file of ``workspace``'s
    spec kept: the blocking *recipe* — RCK operator triples, key length,
    encoded attributes, backend, window, key pairs (a sorted-neighborhood
    store kept the pairs it resolved) — where version 4 keeps passes."""
    plan, spec = workspace.plan, workspace.spec
    config = config_to_dict(plan.target, {})
    windowed = plan.blocking.family == "sorted-neighborhood"
    key_pairs = plan.blocking.pairs if windowed else spec.key_pairs
    config.update(
        rcks=[
            [[atom.left, atom.right, atom.operator.name] for atom in key.atoms]
            for key in plan.rcks
        ],
        key_length=spec.key_length,
        encode_attributes=list(spec.encode),
        blocking={
            "backend": spec.blocking_backend,
            "window": spec.window,
            "key_pairs": [list(pair) for pair in key_pairs] if key_pairs else None,
        },
    )
    return config
