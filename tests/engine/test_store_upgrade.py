"""A store file an older release wrote opens under this one, upgraded.

``tests/fixtures/store-v3.db`` is a real store schema version 3 file,
written by repro 12.0.0 from the repository root with::

    repro engine ingest --spec examples/spec.json \\
        --store tests/fixtures/store-v3.db --left examples/data/credit.csv

Its ``meta.config`` holds the blocking *recipe* (the RCKs as operator
triples, key length, encoded attributes, backend, window, key pairs).
Opening it rewrites it, in place and in one transaction, to version 4,
whose ``meta.config`` holds the passes the recipe resolves to.  The
figures pinned below are 12.0.0's ``engine stats --json`` output,
without ``path`` and ``disk_bytes``.
"""

from __future__ import annotations

import json
import shutil
import sqlite3
from pathlib import Path

import pytest

from repro.api import Workspace
from repro.cli import main
from repro.engine import SQLITE_SCHEMA_VERSION, SQLiteMatchStore

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURE = REPO_ROOT / "tests" / "fixtures" / "store-v3.db"
SPEC = REPO_ROOT / "examples" / "spec.json"
CREDIT = REPO_ROOT / "examples" / "data" / "credit.csv"
BILLING = REPO_ROOT / "examples" / "data" / "billing.csv"

#: 12.0.0's ``engine stats`` of the fixture.
CREDIT_STATS = {
    "backend": "sqlite",
    "comparisons": 0,
    "indexes": {
        "sn:FN+LN+tel": {"buckets": 2, "largest_bucket": 1},
        "sn:LN+tel+FN": {"buckets": 2, "largest_bucket": 1},
        "sn:tel+FN+LN": {"buckets": 2, "largest_bucket": 1},
    },
    "largest_cluster": 0,
    "left_rows": 2,
    "matched_clusters": 0,
    "merges": 0,
    "pending_events": 0,
    "right_rows": 0,
}

#: 12.0.0's ``engine stats`` after ``billing.csv`` was ingested onto it.
BOTH_STATS = {
    "backend": "sqlite",
    "comparisons": 9,
    "indexes": {
        "sn:FN+LN+tel": {"buckets": 3, "largest_bucket": 3},
        "sn:LN+tel+FN": {"buckets": 2, "largest_bucket": 5},
        "sn:tel+FN+LN": {"buckets": 4, "largest_bucket": 3},
    },
    "largest_cluster": 5,
    "left_rows": 2,
    "matched_clusters": 1,
    "merges": 4,
    "pending_events": 0,
    "right_rows": 4,
}


@pytest.fixture
def old_store(tmp_path):
    """A copy of the fixture: the committed file is never opened."""
    copy = tmp_path / "store-v3.db"
    shutil.copyfile(FIXTURE, copy)
    return copy


def _meta(path, key):
    connection = sqlite3.connect(path)
    try:
        row = connection.execute("SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
    finally:
        connection.close()
    return None if row is None else row[0]


def _set_meta(path, **values):
    connection = sqlite3.connect(path)
    with connection:
        connection.executemany(
            "UPDATE meta SET value = ? WHERE key = ?",
            [(value, key) for key, value in values.items()],
        )
    connection.close()


def _stats(path, capsys):
    """``engine stats --json`` without what names the file."""
    capsys.readouterr()
    assert main(["engine", "stats", "--store", str(path), "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    del stats["path"], stats["disk_bytes"]
    return stats


def test_the_fixture_is_a_version_3_store_with_a_recipe():
    assert _meta(FIXTURE, "schema_version") == "3"
    assert _meta(FIXTURE, "release") == "12.0.0"
    assert _meta(FIXTURE, "spec_fingerprint") == "bb08144399820b1a"
    assert set(json.loads(_meta(FIXTURE, "config"))) == {
        "blocking", "encode_attributes", "key_length", "rcks", "schema", "target",
    }


def test_opening_rewrites_it_to_version_4_with_the_plans_passes(old_store, capsys):
    assert _stats(old_store, capsys) == CREDIT_STATS
    assert _meta(old_store, "schema_version") == str(SQLITE_SCHEMA_VERSION) == "4"
    plan = Workspace.from_file(SPEC).plan
    config = json.loads(_meta(old_store, "config"))
    assert config["blocking"] == plan.blocking.to_dict() == {
        "family": "sorted-neighborhood",
        "pairs": [["FN", "FN"], ["LN", "LN"], ["tel", "phn"]],
        "window": 10,
        "encode": ["FN", "LN"],
    }
    assert set(config) == {"schema", "target", "blocking"}
    # Reopened as version 4, it reads the same.
    assert _stats(old_store, capsys) == CREDIT_STATS


def test_ingesting_onto_it_ends_where_a_one_shot_ingest_does(old_store, tmp_path, capsys):
    assert main([
        "engine", "ingest", "--spec", str(SPEC), "--store", str(old_store),
        "--right", str(BILLING),
    ]) == 0
    one_shot = tmp_path / "one.db"
    assert main([
        "engine", "ingest", "--spec", str(SPEC), "--store", str(one_shot),
        "--left", str(CREDIT), "--right", str(BILLING),
    ]) == 0
    assert _stats(old_store, capsys) == _stats(one_shot, capsys) == BOTH_STATS
    with SQLiteMatchStore(old_store) as upgraded, SQLiteMatchStore(one_shot) as fresh:
        assert upgraded.clusters() == fresh.clusters()
        assert upgraded.spec_fingerprint == fresh.spec_fingerprint == "bb08144399820b1a"


def test_a_version_3_tail_is_refused_and_the_file_left_as_it_was(old_store):
    """A tail replays only under the release that wrote it, and that
    release reads no version-4 file: the upgrade refuses it unchanged."""
    connection = sqlite3.connect(old_store)
    with connection:
        connection.execute(
            "INSERT INTO events (seq, side, tid, arrival) VALUES (0, 1, 0, '{}')"
        )
    connection.close()
    before = old_store.read_bytes()
    with pytest.raises(ValueError, match=r"1 event\(s\).*repro 12\.0\.0 first"):
        SQLiteMatchStore(old_store)
    assert old_store.read_bytes() == before


def test_a_failed_upgrade_changes_nothing(old_store):
    """The upgrade is one transaction: a recipe that does not resolve
    leaves the version and the configuration as they were."""
    config = json.loads(_meta(old_store, "config"))
    config["blocking"]["backend"] = "nope"
    _set_meta(old_store, config=json.dumps(config))
    with pytest.raises(ValueError, match="unsupported blocking backend 'nope'"):
        SQLiteMatchStore(old_store)
    assert _meta(old_store, "schema_version") == "3"
    assert json.loads(_meta(old_store, "config")) == config

