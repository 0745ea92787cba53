"""Differential suite: stream ≡ batch for every blocking a spec can declare.

One spec, one front door: :meth:`Workspace.match` and
:meth:`Workspace.stream` of the same workspace must agree —

* a **streaming** run converges to the same clusters and the same
  candidate universe as the **batch** run, under sorted-neighborhood,
  per-RCK hash and explicit-``key_pairs`` hash blocking, for every
  :mod:`repro.datagen.streams` arrival scenario, on both store backends
  (memory and SQLite);
* a store that cannot honor the spec's declared blocking is rejected
  with :class:`~repro.api.spec.SpecError` — never silently substituted
  (CLI exit 2 covered in ``tests/test_cli.py``).
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.api.spec import SpecError
from repro.core.schema import LEFT, RIGHT
from repro.datagen.generator import generate_dataset
from repro.datagen.streams import (
    arrival_stream,
    duplicate_burst_stream,
    late_duplicate_stream,
)
from repro.engine.store import MatchStore
from repro.plan.blocking import HashBlockingBackend
from repro.plan.sn_index import WindowedSNIndex

SCENARIOS = {
    "arrival": arrival_stream,
    "duplicate-burst": duplicate_burst_stream,
    "late-duplicate": late_duplicate_stream,
}

STORE_BACKENDS = ("memory", "sqlite")

SN = {"backend": "sorted-neighborhood", "window": 10}

HASH_BLOCKING = {
    "per-rck": {"backend": "hash", "key_length": 1},
    "key-pairs": {"backend": "hash", "key_pairs": [["zip", "zip"]]},
}


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(120, seed=3)


def _cluster_set(clusters):
    return sorted(
        (tuple(sorted(cluster.left_tids)), tuple(sorted(cluster.right_tids)))
        for cluster in clusters
    )


def _stream_against_batch(
    workspace_for, dataset, blocking, scenario, store_backend, tmp_path
):
    """Stream one scenario under ``blocking``; hold it to the batch run.

    Returns the workspace, for family-specific assertions.
    """
    sections = {"blocking": blocking}
    if store_backend == "sqlite":
        sections["persistence"] = {
            "backend": "sqlite",
            "path": str(tmp_path / f"{scenario}.db"),
        }
    workspace = workspace_for(dataset, **sections)
    report = workspace.match(dataset.credit, dataset.billing)

    matcher = workspace.stream()
    store = matcher.store
    assert store.backend_name == store_backend
    assert store.blocking.family == blocking["backend"]
    for event in SCENARIOS[scenario](dataset, seed=5).events:
        # Dataset tids are preserved so clusters and candidate pairs are
        # directly comparable with the batch run's.
        matcher.ingest(event.side, event.values, tid=event.tid)

    # Identical clusters, and the identical candidate universe: probing
    # the live index with every record yields exactly the batch pairs.
    assert _cluster_set(store.clusters()) == _cluster_set(report.clusters)
    live = sorted(
        (row.tid, other)
        for row in store.left
        for other in store.neighbors(LEFT, row.tid)
    )
    assert live == sorted(report.candidates)
    if blocking["backend"] == "sorted-neighborhood":
        # The streamed rank encoding enumerates that universe by itself.
        assert report.matches
        assert list(store.blocking.scan_candidates()) == live
    assert store.spec_fingerprint == report.fingerprint
    store.close()
    return workspace


@pytest.mark.parametrize("store_backend", STORE_BACKENDS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS), ids=sorted(SCENARIOS))
def test_streaming_sn_equals_batch(
    scenario, store_backend, dataset, workspace_for, tmp_path
):
    workspace = _stream_against_batch(
        workspace_for, dataset, SN, scenario, store_backend, tmp_path
    )
    # The obs counters prove the SN path actually ran.
    assert workspace.metrics.counters["engine.sn_probes"] > 0
    assert workspace.metrics.gauges["engine.sn_blocks"] > 1


def test_sn_ingest_gauges_block_runs_without_measuring_them(
    dataset, workspace_for, monkeypatch
):
    """``engine.sn_blocks`` is the live run count, read per pass after
    every ingest.  ``index_stats`` also measures the longest run — a scan
    of every run, on every ingest, which grows with the stream — so an
    ingest must not call it."""
    workspace = workspace_for(dataset, blocking=SN)
    matcher = workspace.stream()

    def measured(self):
        raise AssertionError("an ingest scanned every block run")

    with monkeypatch.context() as patch:
        patch.setattr(WindowedSNIndex, "index_stats", measured)
        matcher.ingest_stream(arrival_stream(dataset, seed=5).events[:40])
        matcher.ingest_batch(arrival_stream(dataset, seed=5).events[40:60])
    stats = matcher.store.blocking.index_stats()
    assert workspace.metrics.gauges["engine.sn_blocks"] == sum(
        entry["buckets"] for entry in stats.values()
    )


@pytest.mark.parametrize("store_backend", STORE_BACKENDS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS), ids=sorted(SCENARIOS))
@pytest.mark.parametrize("blocking", sorted(HASH_BLOCKING))
def test_streaming_hash_equals_batch(
    blocking, scenario, store_backend, dataset, workspace_for, tmp_path
):
    """The ``key-pairs`` rows fail before 2.0: both stores ignored an
    explicit hash key and indexed per RCK, so a stream saw other
    candidates — and ended in other clusters — than its batch run."""
    workspace = _stream_against_batch(
        workspace_for, dataset, HASH_BLOCKING[blocking], scenario,
        store_backend, tmp_path,
    )
    assert "engine.sn_probes" not in workspace.metrics.counters


class TestStreamGuard:
    """No silent substitution: a store built under other blocking raises."""

    def test_hash_built_store_rejected_under_sn_spec(
        self, dataset, workspace_for
    ):
        sn_workspace = workspace_for(dataset, blocking=SN)
        plan = sn_workspace.plan
        hash_store = MatchStore(plan.target, HashBlockingBackend.per_rck(plan.rcks))
        hash_store.spec_fingerprint = sn_workspace.fingerprint
        with pytest.raises(SpecError, match="streams under 'hash'"):
            sn_workspace.stream(store=hash_store)

    def test_sqlite_store_from_other_blocking_config_rejected(
        self, dataset, workspace_for, tmp_path
    ):
        durable = {"backend": "sqlite", "path": str(tmp_path / "store.db")}
        workspace_for(dataset, persistence=durable).open_store().close()
        for other in (SN, HASH_BLOCKING["key-pairs"]):
            with pytest.raises(SpecError, match="blocking"):
                workspace_for(
                    dataset, blocking=other, persistence=durable
                ).open_store()

    def test_store_indexed_per_rck_under_key_pairs_is_reindexed(
        self, dataset, workspace_for, tmp_path
    ):
        """What a pre-2.0 build wrote under ``hash`` + ``key_pairs``: the
        configuration's passes name the key, the records were indexed per
        RCK.  The index is derived from the passes, so the store opens
        and probes exactly like a fresh ``key_pairs`` store over the same
        records."""
        path = tmp_path / "parent.db"
        durable = {"backend": "sqlite", "path": str(path)}
        per_rck = workspace_for(dataset, persistence=durable)
        matcher = per_rck.stream()
        for event in arrival_stream(dataset, seed=5).events[:40]:
            matcher.ingest(event.side, event.values, tid=event.tid)
        matcher.store.close()

        keyed = workspace_for(
            dataset, blocking=HASH_BLOCKING["key-pairs"], persistence=durable
        )
        connection = sqlite3.connect(path)
        with connection:
            connection.execute(
                "UPDATE meta SET value = ? WHERE key = 'spec_fingerprint'",
                (keyed.fingerprint,),
            )
            (raw,) = connection.execute(
                "SELECT value FROM meta WHERE key = 'config'"
            ).fetchone()
            config = dict(json.loads(raw), blocking=keyed.plan.blocking.to_dict())
            connection.execute(
                "UPDATE meta SET value = ? WHERE key = 'config'", (json.dumps(config),)
            )
        connection.close()

        store = keyed.stream().store
        fresh = workspace_for(dataset, blocking=HASH_BLOCKING["key-pairs"]).stream().store
        records = [
            (side, tid)
            for side in (LEFT, RIGHT)
            for tid in store.relation(side).tids()
        ]
        assert len(records) == 40
        for side, tid in records:
            fresh.add(side, store.arrival_values(side, tid), tid=tid)
        assert store.blocking.describe() == fresh.blocking.describe() == (
            "hash(1 passes: zip~zip)"
        )
        probes = {record: store.neighbors(*record) for record in records}
        assert probes == {record: fresh.neighbors(*record) for record in records}
        assert any(probes.values())
        store.close()

    def test_matching_sn_store_streams_fine(
        self, dataset, workspace_for, tmp_path
    ):
        workspace = workspace_for(
            dataset,
            blocking=SN,
            persistence={"backend": "sqlite", "path": str(tmp_path / "ok.db")},
        )
        matcher = workspace.stream()
        assert matcher.store.blocking.family == "sorted-neighborhood"
        matcher.store.close()


def test_sn_spec_window_in_fingerprint(dataset, workspace_for):
    """The window is semantics, not a deployment knob: it fingerprints."""
    narrow = workspace_for(dataset, blocking=SN)
    wide = workspace_for(dataset, blocking={**SN, "window": 20})
    assert narrow.fingerprint != wide.fingerprint
