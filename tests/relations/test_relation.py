"""Unit tests for the relational substrate."""

import pytest

from repro.core.schema import RelationSchema
from repro.relations.relation import Relation, Row


@pytest.fixture
def schema():
    return RelationSchema("R", ["A", "B"])


class TestInsert:
    def test_auto_tids_sequential(self, schema):
        relation = Relation(schema)
        assert relation.insert({"A": 1}) == 0
        assert relation.insert({"A": 2}) == 1

    def test_missing_attributes_become_null(self, schema):
        relation = Relation(schema)
        tid = relation.insert({"A": 1})
        assert relation[tid]["B"] is None

    def test_unknown_attribute_rejected(self, schema):
        relation = Relation(schema)
        with pytest.raises(KeyError, match="X"):
            relation.insert({"X": 1})

    def test_explicit_tid(self, schema):
        relation = Relation(schema)
        assert relation.insert({"A": 1}, tid=10) == 10
        # subsequent auto tid continues beyond
        assert relation.insert({"A": 2}) == 11

    def test_duplicate_tid_rejected(self, schema):
        relation = Relation(schema)
        relation.insert({"A": 1}, tid=3)
        with pytest.raises(ValueError):
            relation.insert({"A": 2}, tid=3)

    def test_constructor_bulk_rows(self, schema):
        relation = Relation(schema, [{"A": 1}, {"A": 2}])
        assert len(relation) == 2


class TestAccess:
    def test_getitem_missing(self, schema):
        relation = Relation(schema)
        with pytest.raises(KeyError, match="no tuple"):
            relation[99]

    def test_contains(self, schema):
        relation = Relation(schema, [{"A": 1}])
        assert 0 in relation
        assert 1 not in relation

    def test_iteration_order(self, schema):
        relation = Relation(schema, [{"A": i} for i in range(5)])
        assert [row["A"] for row in relation] == list(range(5))
        assert relation.tids() == list(range(5))

    def test_set_value(self, schema):
        relation = Relation(schema, [{"A": 1, "B": 2}])
        relation.set_value(0, "B", 99)
        assert relation[0]["B"] == 99

    def test_set_value_unknown_attribute(self, schema):
        relation = Relation(schema, [{"A": 1}])
        with pytest.raises(KeyError):
            relation.set_value(0, "X", 1)


class TestRow:
    def test_project(self, schema):
        relation = Relation(schema, [{"A": 1, "B": 2}])
        assert relation[0].project(["B", "A"]) == (2, 1)

    def test_values_copy(self, schema):
        relation = Relation(schema, [{"A": 1, "B": 2}])
        values = relation[0].values()
        values["A"] = 42
        assert relation[0]["A"] == 1

    def test_get_with_default(self, schema):
        relation = Relation(schema, [{"A": 1}])
        assert relation[0].get("missing", "dflt") == "dflt"

    def test_equality_by_tid_and_values(self, schema):
        first = Relation(schema, [{"A": 1}])
        second = Relation(schema, [{"A": 1}])
        assert first[0] == second[0]


class TestProject:
    def test_project_is_a_column_major_snapshot(self, schema):
        relation = Relation(schema)
        relation.insert({"A": "x"}, tid=5)
        relation.insert({"B": "y"}, tid=2)
        flat = relation.project([2, 5, 2], ["B", "A"])
        assert flat == ["y", None, "y", None, "x", None]
        relation.set_value(5, "A", "changed")
        flat[0] = "local"
        assert flat[4] == "x" and relation[2]["B"] == "y"

    def test_unknown_attribute_or_tid(self, schema):
        with pytest.raises(KeyError, match="not an attribute"):
            Relation(schema).project([], ["Z"])
        with pytest.raises(KeyError, match="no tuple with id 7"):
            Relation(schema).project([7], ["A"])

    def test_the_first_unknown_attribute_is_named(self, schema):
        relation = Relation(schema, [{"A": 1}])
        with pytest.raises(KeyError) as raised:
            relation.project([0], ["A", "Y", "B", "Z"])
        assert raised.value.args == (f"'Y' is not an attribute of {schema.name!r}",)


class TestAdopt:
    def test_adopt_keeps_the_dict_and_checks_only_the_tid(self, schema):
        relation = Relation(schema)
        values = {"A": "x", "B": None}
        relation.adopt(4, values)
        assert relation[4]["A"] == "x" and relation.tids() == [4]
        assert relation.insert({"A": "next"}) == 5
        with pytest.raises(ValueError, match="already present"):
            relation.adopt(4, {"A": "again", "B": None})


#: Tids a relation refuses: not an ``int``, or a ``bool``.
BAD_TIDS = ("x", 1.5, 2.0, True, False)


class TestTidType:
    """A tid that is not an ``int`` is refused before anything is stored:
    the rows and the next automatic tid stay as they were."""

    @pytest.mark.parametrize("tid", BAD_TIDS, ids=repr)
    def test_insert_refuses_it(self, schema, tid):
        relation = Relation(schema, [{"A": "kept"}])
        with pytest.raises(ValueError, match="is not an int") as raised:
            relation.insert({"A": "a"}, tid=tid)
        assert repr(tid) in str(raised.value)
        assert relation.tids() == [0] and relation.next_tid == 1
        assert relation.insert({"A": "b"}) == 1

    @pytest.mark.parametrize("tid", BAD_TIDS, ids=repr)
    @pytest.mark.parametrize("values", (["a", None], {"A": "a", "B": None}))
    def test_adopt_refuses_it(self, schema, tid, values):
        relation = Relation(schema, [{"A": "kept"}])
        with pytest.raises(ValueError, match="is not an int"):
            relation.adopt(tid, values)
        assert relation.tids() == [0] and relation.next_tid == 1

    def test_an_int_beyond_64_bits_is_a_tid(self, schema):
        relation = Relation(schema)
        assert relation.insert({"A": "a"}, tid=2**70) == 2**70
        assert relation.next_tid == 2**70 + 1


class TestExtension:
    def test_copy_preserves_tids_and_is_extension(self, schema):
        relation = Relation(schema, [{"A": 1}, {"A": 2}])
        duplicate = relation.copy()
        assert duplicate.extends(relation)
        assert relation.extends(duplicate)
        duplicate.set_value(0, "A", 99)
        # Values may differ — still an extension (⊑ tracks tuple ids).
        assert duplicate.extends(relation)
        assert relation[0]["A"] == 1

    def test_copy_keeps_sparse_tids_and_the_next_fresh_one(self, schema):
        relation = Relation(schema)
        relation.insert({"A": 1}, tid=7)
        relation.insert({"A": 2}, tid=3)
        duplicate = relation.copy()
        assert duplicate.tids() == [7, 3]
        assert [row.values() for row in duplicate] == [
            {"A": 1, "B": None}, {"A": 2, "B": None},
        ]
        # Auto ids continue past the largest copied one on both.
        assert duplicate.insert({"A": 3}) == relation.insert({"A": 3}) == 8

    def test_missing_tuple_breaks_extension(self, schema):
        relation = Relation(schema, [{"A": 1}, {"A": 2}])
        smaller = Relation(schema, [{"A": 1}])
        assert not smaller.extends(relation)
        assert relation.extends(smaller)

    def test_different_schema_never_extends(self, schema):
        other = Relation(RelationSchema("S", ["A", "B"]))
        assert not other.extends(Relation(schema))


class TestColumns:
    """A relation stores a column per attribute; its rows are views."""

    @pytest.fixture
    def shuffled(self, schema):
        """Tids inserted out of order, some values null."""
        relation = Relation(schema)
        for tid in (7, 3, 11, 0):
            relation.insert({"A": f"a{tid}", "B": None if tid % 2 else f"b{tid}"}, tid=tid)
        return relation

    def test_a_row_read_before_set_value_sees_the_new_value(self, shuffled):
        row = shuffled[3]
        shuffled.set_value(3, "B", "new")
        assert row["B"] == "new" and row.values() == {"A": "a3", "B": "new"}

    def test_copy_is_independent_of_the_original(self, shuffled):
        duplicate = shuffled.copy()
        duplicate.set_value(7, "A", "changed")
        duplicate.insert({"A": "more"})
        shuffled.set_value(0, "B", "other")
        assert [row.values() for row in shuffled] == [
            {"A": "a7", "B": None}, {"A": "a3", "B": None},
            {"A": "a11", "B": None}, {"A": "a0", "B": "other"},
        ]
        assert [row.values() for row in duplicate] == [
            {"A": "changed", "B": None}, {"A": "a3", "B": None},
            {"A": "a11", "B": None}, {"A": "a0", "B": "b0"},
            {"A": "more", "B": None},
        ]
        assert 12 in duplicate and 12 not in shuffled

    def test_project_equals_per_row_reads(self, shuffled):
        tids = [11, 0, 7, 3, 7]
        for attributes in (["A"], ["B", "A"], ["B", "B"], []):
            assert shuffled.project(tids, attributes) == [
                shuffled[tid][attribute] for attribute in attributes for tid in tids
            ]

    def test_iteration_keeps_insertion_order(self, shuffled):
        assert [row.tid for row in shuffled] == shuffled.tids() == [7, 3, 11, 0]
        assert [row["A"] for row in shuffled.rows()] == ["a7", "a3", "a11", "a0"]
        tids, positions = shuffled.by_tid()
        assert list(tids) == [0, 3, 7, 11]
        assert [shuffled.column("A")[p] for p in positions] == ["a0", "a3", "a7", "a11"]

    def test_a_standalone_row_equals_and_hashes_as_before(self, schema, shuffled):
        mapping = {"A": "a3", "B": None}
        standalone = Row(3, mapping)
        mapping["A"] = "later"  # the row keeps its own copy
        assert standalone == shuffled[3] and hash(standalone) == hash(3)
        assert standalone != Row(3, {"A": "a3", "B": "b"})
        assert standalone != Row(4, {"A": "a3", "B": None})
        assert len({standalone, shuffled[3]}) == 1
        assert standalone["A"] == "a3" and standalone.get("Z", "d") == "d"
        assert repr(standalone) == "Row(tid=3, {'A': 'a3', 'B': None})"

    def test_extend_refuses_a_stale_tid_and_stores_nothing(self, shuffled):
        with pytest.raises(ValueError, match="tuple id 3 already present"):
            shuffled.extend([20, 3], [["x", "y"], [None, None]])
        with pytest.raises(ValueError, match="tuple id 21 already present"):
            shuffled.extend([21, 21], [["x", "y"], [None, None]])
        assert shuffled.tids() == [7, 3, 11, 0] and len(shuffled.column("A")) == 4
        shuffled.extend(range(20, 22), [["x", "y"], [None, "z"]])
        assert shuffled[21].values() == {"A": "y", "B": "z"} and shuffled.next_tid == 22
