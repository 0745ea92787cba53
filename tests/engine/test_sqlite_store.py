"""Unit behavior of the durable SQLite-backed match store."""

from __future__ import annotations

import re
import sqlite3

import pytest

from repro.core.schema import LEFT, RIGHT
from repro.datagen.schemas import credit_billing_pair, paper_mds, paper_target
from repro.core.findrcks import find_rcks
from repro.engine import MatchStore, SQLiteMatchStore
from repro.engine.sqlite import SQLITE_MAGIC, is_sqlite_file


@pytest.fixture(scope="module")
def config():
    pair = credit_billing_pair()
    target = paper_target(pair)
    rcks = find_rcks(paper_mds(pair), target, m=5)
    return target, rcks


ROW = {"c#": "111", "FN": "Mark", "LN": "Clifford", "tel": "212-5550234"}
MATCHING_ROW = {
    "c#": "111", "FN": "Marx", "LN": "Clifford", "phn": "212-5550234",
}


@pytest.fixture
def store(config, tmp_path):
    target, rcks = config
    store = SQLiteMatchStore(tmp_path / "store.db", target, rcks)
    yield store
    store.close(commit=False)


class TestCreateAndOpen:
    def test_new_store_requires_configuration(self, tmp_path):
        with pytest.raises(ValueError, match="requires"):
            SQLiteMatchStore(tmp_path / "fresh.db")

    @pytest.mark.parametrize("refused", ["no-configuration", "unknown-backend"])
    def test_a_refused_creation_leaves_the_path_usable(
        self, config, tmp_path, refused
    ):
        """A creation refused for its arguments writes no file: a
        table-less database there would fail every later open with
        ``no such table: meta``, a full configuration included."""
        target, rcks = config
        path = tmp_path / "fresh.db"
        if refused == "no-configuration":
            with pytest.raises(ValueError, match="requires"):
                SQLiteMatchStore(path)
        else:
            with pytest.raises(ValueError, match="unsupported blocking backend"):
                SQLiteMatchStore(path, target, rcks, blocking_backend="nope")
        assert not path.exists()
        with SQLiteMatchStore(path, target, rcks) as store:
            store.add(LEFT, ROW)
        reopened = SQLiteMatchStore(path)
        assert len(reopened.left) == 1
        reopened.close(commit=False)

    def test_a_refused_open_closes_its_connection(
        self, store, config, monkeypatch
    ):
        from repro.engine.sqlite import connect
        from repro.engine.sqlite import store as store_module

        target, rcks = config
        store.close()
        opened = []
        monkeypatch.setattr(
            store_module, "connect", lambda path: opened.append(connect(path)) or opened[-1]
        )
        with pytest.raises(ValueError, match="different"):
            SQLiteMatchStore(store.path, target, rcks, key_length=2)
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            opened[0].execute("SELECT 1")

    def test_file_is_sqlite(self, store, config):
        store.close()
        assert is_sqlite_file(store.path)
        assert store.path.read_bytes()[: len(SQLITE_MAGIC)] == SQLITE_MAGIC

    def test_reopen_restores_configuration(self, store, config, tmp_path):
        target, rcks = config
        store.add(LEFT, ROW)
        store.close()
        reopened = SQLiteMatchStore(store.path)
        assert reopened.target == target
        assert reopened.rcks == list(rcks)
        assert [index.name for index in reopened.indexes] == [
            index.name for index in store.indexes
        ]
        assert len(reopened.left) == 1
        reopened.close(commit=False)

    def test_reopen_with_matching_configuration_accepted(self, store, config):
        target, rcks = config
        store.close()
        reopened = SQLiteMatchStore(store.path, target, rcks)
        assert reopened.target == target
        reopened.close(commit=False)

    def test_reopen_with_different_configuration_rejected(self, store, config):
        target, rcks = config
        store.close()
        with pytest.raises(ValueError, match="different"):
            SQLiteMatchStore(store.path, target, rcks, key_length=2)

    def test_unsupported_schema_version_rejected(self, store):
        store.connection.execute(
            "UPDATE meta SET value = '99' WHERE key = 'schema_version'"
        )
        store.close()
        with pytest.raises(ValueError, match="schema version"):
            SQLiteMatchStore(store.path)

    def test_warm_open_reads_no_records(self, store, monkeypatch):
        """Opening reads neither records nor clusters; each half of the
        state loads once, on first use, from one scan of its table."""
        from repro.engine.sqlite import connect
        from repro.engine.sqlite import store as store_module

        for position in range(50):
            store.add(LEFT, dict(ROW, FN=f"N{position}"))
        store.union(("L", 3), ("L", 4))
        store.close()
        statements = []

        def traced(path):
            connection = connect(path)
            connection.set_trace_callback(statements.append)
            return connection

        monkeypatch.setattr(store_module, "connect", traced)
        reopened = SQLiteMatchStore(store.path)

        def read(table):
            return [s for s in statements if re.search(rf"\bFROM {table}\b", s)]

        assert read("records") == read("clusters") == []
        halves = set(store_module._RECORDS_HALF + store_module._CLUSTERS_HALF)
        assert not set(reopened.__dict__) & halves
        # A cluster read scans ``clusters`` once and no record ...
        assert reopened.cluster_of(LEFT, 3).left_tids == {3, 4}
        assert reopened.cluster_of(LEFT, 5).left_tids == {5}
        assert len(read("clusters")) == 1 and read("records") == []
        assert "left" not in reopened.__dict__
        # ... and a record read scans ``records`` once.
        assert reopened.left[3]["FN"] == "N3"
        assert reopened.arrival_values(LEFT, 49)["FN"] == "N49"
        assert len(reopened.right) == 0
        assert len(read("records")) == 1 and len(read("clusters")) == 1
        reopened.close(commit=False)


class TestRecords:
    def test_add_and_read_back(self, store):
        tid = store.add(LEFT, ROW)
        row = store.left[tid]
        assert row["FN"] == "Mark"
        # Attributes not supplied complete to None, like Relation.insert.
        assert row["SSN"] is None

    def test_unknown_attribute_rejected(self, store):
        with pytest.raises(KeyError, match="nope"):
            store.add(LEFT, {"nope": "x"})

    def test_duplicate_tid_rejected(self, store):
        store.add(LEFT, ROW, tid=7)
        with pytest.raises(ValueError, match="already present"):
            store.add(LEFT, ROW, tid=7)

    def test_set_value_keeps_arrival_immutable(self, store):
        tid = store.add(LEFT, ROW)
        store.repair(LEFT, tid, {"FN": "Marcus"})
        assert store.left[tid]["FN"] == "Marcus"
        assert store.arrival_values(LEFT, tid)["FN"] == "Mark"
        store.commit()
        reopened = SQLiteMatchStore(store.path)
        assert reopened.left[tid]["FN"] == "Marcus"
        assert reopened.arrival_values(LEFT, tid)["FN"] == "Mark"
        reopened.close(commit=False)

    def test_rows_iterate_in_insertion_order(self, store):
        store.add(LEFT, ROW, tid=5)
        store.add(LEFT, dict(ROW, FN="Second"), tid=2)
        assert [row.tid for row in store.left] == [5, 2]
        assert store.left.tids() == [5, 2]


class TestMatchingInterface:
    def test_neighbors_probe_other_side(self, store):
        left_tid = store.add(LEFT, ROW)
        right_tid = store.add(RIGHT, MATCHING_ROW)
        assert store.neighbors(LEFT, left_tid) == [right_tid]
        assert store.neighbors(RIGHT, right_tid) == [left_tid]

    def test_union_find_and_clusters(self, store):
        left_tid = store.add(LEFT, ROW)
        right_tid = store.add(RIGHT, MATCHING_ROW)
        assert not store.same(("L", left_tid), ("R", right_tid))
        assert store.union(("L", left_tid), ("R", right_tid))
        assert not store.union(("L", left_tid), ("R", right_tid))
        assert store.same(("L", left_tid), ("R", right_tid))
        assert store.merges == 1
        cluster = store.cluster_of(LEFT, left_tid)
        assert cluster.left_tids == frozenset({left_tid})
        assert cluster.right_tids == frozenset({right_tid})
        assert store.clusters() == [cluster]

    def test_singletons_only_reported_on_request(self, store):
        store.add(LEFT, ROW)
        assert store.clusters() == []
        singles = store.clusters(include_singletons=True)
        assert len(singles) == 1


class TestDurability:
    def test_commit_persists_rollback_discards(self, store):
        store.add(LEFT, ROW, tid=0)
        store.commit()
        store.add(LEFT, dict(ROW, FN="Gone"), tid=1)
        store.comparisons += 10
        store.rollback()
        assert 1 not in store.left
        assert store.comparisons == 0
        assert len(store.left) == 1
        reopened = SQLiteMatchStore(store.path)
        assert reopened.left.tids() == [0]
        reopened.close(commit=False)

    def test_counters_survive_reopen(self, store):
        store.comparisons = 17
        store.merges = 3
        store.close()
        reopened = SQLiteMatchStore(store.path)
        assert reopened.comparisons == 17
        assert reopened.merges == 3
        reopened.close(commit=False)

    def test_fingerprint_round_trips(self, store):
        assert store.spec_fingerprint is None
        store.spec_fingerprint = "abc123"
        store.commit()
        reopened = SQLiteMatchStore(store.path)
        assert reopened.spec_fingerprint == "abc123"
        reopened.close(commit=False)

    def test_context_manager_commits(self, config, tmp_path):
        target, rcks = config
        with SQLiteMatchStore(tmp_path / "ctx.db", target, rcks) as store:
            store.add(LEFT, ROW)
        reopened = SQLiteMatchStore(tmp_path / "ctx.db")
        assert len(reopened.left) == 1
        reopened.close(commit=False)


class TestStats:
    def test_backend_and_disk_size_reported(self, store):
        store.add(LEFT, ROW)
        store.commit()
        stats = store.stats()
        assert stats["backend"] == "sqlite"
        assert stats["path"] == str(store.path)
        assert stats["disk_bytes"] > 0
        assert stats["left_rows"] == 1

    def test_memory_store_reports_backend(self, config):
        target, rcks = config
        stats = MatchStore(target, rcks).stats()
        assert stats["backend"] == "memory"
        assert "disk_bytes" not in stats

    def test_index_stats_match_memory_backend(self, store, config):
        target, rcks = config
        memory = MatchStore(target, rcks)
        for s in (store, memory):
            s.add(LEFT, ROW)
            s.add(RIGHT, MATCHING_ROW)
        assert store.stats()["indexes"] == memory.stats()["indexes"]


def test_garbage_file_is_not_sqlite(tmp_path):
    path = tmp_path / "garbage.db"
    path.write_text("not a database")
    assert not is_sqlite_file(path)
    with pytest.raises(ValueError, match="not a SQLite store"):
        SQLiteMatchStore(path)
    assert path.read_text() == "not a database"


def test_a_foreign_sqlite_file_is_refused_unchanged(config, tmp_path):
    """A SQLite database without a store's ``meta`` is refused before any
    pragma runs: its journal mode (``wal`` persists in the file) and its
    schema are as they were, whether or not a configuration is given."""
    target, rcks = config
    path = tmp_path / "foreign.db"
    with sqlite3.connect(path) as connection:
        connection.execute("CREATE TABLE readings (at TEXT, value REAL)")
        connection.execute("CREATE TABLE meta (key TEXT, value TEXT)")
    connection.close()

    def observed():
        with sqlite3.connect(path) as connection:
            seen = (
                connection.execute("PRAGMA journal_mode").fetchone(),
                connection.execute("SELECT * FROM sqlite_master").fetchall(),
            )
        connection.close()
        return seen

    before = observed()
    assert before[0] == ("delete",)
    for arguments in ((), (target, rcks)):
        with pytest.raises(ValueError, match="schema_version|schema version"):
            SQLiteMatchStore(path, *arguments)
        assert observed() == before
