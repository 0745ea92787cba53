"""Unit tests for indexes and CSV round-trips."""

import pytest

from repro.core.schema import RelationSchema
from repro.relations.csvio import load_relation, save_relation
from repro.relations.index import HashIndex, SortedIndex
from repro.relations.relation import Relation


@pytest.fixture
def relation():
    schema = RelationSchema("R", ["name", "city"])
    return Relation(
        schema,
        [
            {"name": "Mark", "city": "NJ"},
            {"name": "Marx", "city": "NJ"},
            {"name": "Anna", "city": "NY"},
        ],
    )


class TestHashIndex:
    def test_lookup(self, relation):
        index = HashIndex(relation, lambda row: row["city"])
        assert sorted(index.lookup("NJ")) == [0, 1]
        assert index.lookup("NY") == [2]
        assert index.lookup("TX") == []

    def test_bucket_count(self, relation):
        index = HashIndex(relation, lambda row: row["city"])
        assert len(index) == 2

    def test_buckets_are_copies(self, relation):
        index = HashIndex(relation, lambda row: row["city"])
        buckets = index.buckets()
        buckets["NJ"].append(99)
        assert 99 not in index.lookup("NJ")

    def test_derived_key(self, relation):
        index = HashIndex(relation, lambda row: str(row["name"])[0])
        assert sorted(index.lookup("M")) == [0, 1]


class TestSortedIndex:
    def test_order(self, relation):
        index = SortedIndex(relation, lambda row: row["name"])
        assert index.ordered_tids() == [2, 0, 1]  # Anna, Mark, Marx

    def test_key_at(self, relation):
        index = SortedIndex(relation, lambda row: row["name"])
        assert index.key_at(0) == "Anna"

    def test_stable_on_ties(self, relation):
        index = SortedIndex(relation, lambda row: row["city"])
        assert index.ordered_tids() == [0, 1, 2]

    def test_len(self, relation):
        assert len(SortedIndex(relation, lambda row: row["name"])) == 3


class TestCsvRoundTrip:
    def test_round_trip(self, relation, tmp_path):
        path = tmp_path / "r.csv"
        save_relation(relation, path)
        loaded = load_relation(relation.schema, path)
        assert len(loaded) == len(relation)
        for row in relation:
            assert loaded[row.tid].values() == row.values()

    def test_nulls_round_trip(self, tmp_path):
        schema = RelationSchema("R", ["A"])
        relation = Relation(schema, [{"A": None}])
        path = tmp_path / "n.csv"
        save_relation(relation, path)
        loaded = load_relation(schema, path)
        assert loaded[0]["A"] is None

    def test_header_mismatch_rejected(self, relation, tmp_path):
        path = tmp_path / "r.csv"
        save_relation(relation, path)
        wrong = RelationSchema("R", ["name", "state"])
        with pytest.raises(ValueError, match="header"):
            load_relation(wrong, path)

    def test_empty_file(self, tmp_path):
        schema = RelationSchema("R", ["A"])
        path = tmp_path / "e.csv"
        path.write_text("")
        assert len(load_relation(schema, path)) == 0

    def test_tids_preserved(self, tmp_path):
        schema = RelationSchema("R", ["A"])
        relation = Relation(schema)
        relation.insert({"A": "x"}, tid=7)
        path = tmp_path / "t.csv"
        save_relation(relation, path)
        loaded = load_relation(schema, path)
        assert 7 in loaded

    def test_short_records_fill_with_nulls_and_duplicate_tids_raise(self, tmp_path):
        schema = RelationSchema("R", ["A", "B", "C"])
        path = tmp_path / "s.csv"
        path.write_text("__tid__,A,B,C\n4,x\n9,p,q,r,extra\n")
        loaded = load_relation(schema, path)
        assert loaded[4].values() == {"A": "x", "B": None, "C": None}
        assert loaded[9].values() == {"A": "p", "B": "q", "C": "r"}
        assert loaded.insert({"A": "next"}) == 10
        path.write_text("__tid__,A,B,C\n4,x,y,z\n4,x,y,z\n")
        with pytest.raises(ValueError, match="already present"):
            load_relation(schema, path)
