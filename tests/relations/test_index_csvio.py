"""Unit tests for CSV round-trips."""

import gc
import re
import sys
import tracemalloc

import pytest

from repro.core.schema import RelationSchema
from repro.datagen.generator import generate_dataset
from repro.relations.csvio import load_relation, save_relation
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
        path.write_text("__tid__,A,B,C\n4,x\n9,p,q,r\n")
        loaded = load_relation(schema, path)
        assert loaded[4].values() == {"A": "x", "B": None, "C": None}
        assert loaded[9].values() == {"A": "p", "B": "q", "C": "r"}
        assert loaded.insert({"A": "next"}) == 10
        path.write_text("__tid__,A,B,C\n4,x,y,z\n4,x,y,z\n")
        with pytest.raises(ValueError, match="already present"):
            load_relation(schema, path)

    def test_a_saved_record_longer_than_the_header_raises(self, tmp_path):
        """An extra field is data the header has no column for: refused,
        as under a plain header, never dropped."""
        schema = RelationSchema("R", ["A", "B"])
        path = tmp_path / "long.csv"
        path.write_text("__tid__,A,B\n0,x,y\n1,p,q,EXTRA\n")
        with pytest.raises(
            ValueError, match=f"{path}, line 3: 4 fields, the header has 3"
        ):
            load_relation(schema, path)

    def test_a_saved_tid_is_an_optional_minus_then_ascii_digits(self, tmp_path):
        """``int()`` would read ``1_0`` as 10, ``+3`` as 3 and ``٣`` as 3;
        only what ``save_relation`` writes is a tuple id."""
        schema = RelationSchema("R", ["A"])
        path = tmp_path / "ids.csv"
        path.write_text("__tid__,A\n-2,x\n12,y\n", encoding="utf-8")
        assert load_relation(schema, path).tids() == [-2, 12]
        for bad in ("1_0", "+3", " 4", "\u0663", "-", "", "9" * 5000):
            path.write_text(f"__tid__,A\n0,x\n{bad},y\n", encoding="utf-8")
            with pytest.raises(
                ValueError,
                match=re.escape(f"line 3: tuple id {bad!r} is not an integer"),
            ):
                load_relation(schema, path)

    @pytest.mark.parametrize(
        "text",
        ["__tid__,A,B\n0,NJ,x\n1,NJ,NJ\n", "B,A\nx,NJ\nNJ,NJ\n"],
        ids=["saved", "plain"],
    )
    def test_equal_fields_are_one_object(self, text, tmp_path):
        """A value is held once per load, however many fields repeat it."""
        schema = RelationSchema("R", ["A", "B"])
        path = tmp_path / "i.csv"
        path.write_text(text)
        first, second = load_relation(schema, path).rows()
        assert first["A"] is second["A"] is second["B"]
        assert first["A"] == "NJ"

    def test_plain_header_names_a_subset_in_any_order(self, tmp_path):
        schema = RelationSchema("R", ["A", "B", "C"])
        path = tmp_path / "p.csv"
        path.write_text("C,A\nz,x\n\nw\n")
        loaded = load_relation(schema, path)
        assert [row.values() for row in loaded] == [
            {"A": "x", "B": None, "C": "z"},
            {"A": None, "B": None, "C": "w"},
        ]
        path.write_text("A,D\nx,y\n")
        with pytest.raises(ValueError, match=r"columns \['D'\] not in schema 'R'"):
            load_relation(schema, path)
        path.write_text("A,B\nx,y\nx,y,z\n")
        with pytest.raises(ValueError, match="line 3: 3 fields, the header has 2"):
            load_relation(schema, path)

    def test_a_plain_header_naming_a_column_twice_is_refused(self, tmp_path):
        schema = RelationSchema("R", ["A", "B"])
        path = tmp_path / "twice.csv"
        path.write_text("A,B,A\n1,2,3\n")
        with pytest.raises(
            ValueError, match=re.escape(f"{path}: column 'A' appears twice")
        ):
            load_relation(schema, path)

    @pytest.mark.parametrize(
        "text",
        ["__tid__,A,B\n4,x,\n5,\ufeffy,z\n", "B,A\n,x\nz,\ufeffy\n"],
        ids=["saved", "plain"],
    )
    def test_a_leading_byte_order_mark_is_dropped(self, text, tmp_path):
        """Only the file's leading mark: one inside a field is text."""
        schema = RelationSchema("R", ["A", "B"])
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        loaded = load_relation(schema, path)
        assert [row.values() for row in loaded] == [
            {"A": "x", "B": None}, {"A": "\ufeffy", "B": "z"},
        ]

    def test_unreadable_files_name_the_path(self, tmp_path):
        schema = RelationSchema("R", ["A"])
        path = tmp_path / "b.csv"
        path.write_bytes(b"A\n\xff\n")
        with pytest.raises(ValueError, match=f"{path}: not UTF-8 text"):
            load_relation(schema, path)
        with pytest.raises(IsADirectoryError):
            load_relation(schema, tmp_path)


#: Bytes a loaded relation keeps per cell beyond its value objects, for
#: the K=1000 seed-7 credit and billing files: 13.4 on CPython 3.11 with a
#: column of references per attribute, + 12 %.  A ``Row`` and a value
#: list per record kept 17.8.
BYTES_PER_CELL_BOUND = 15.0


def test_a_loaded_relation_holds_columns_not_rows(tmp_path):
    """What a loaded relation keeps beyond the values it holds — columns,
    tids and the tid map — traced, not sampled from RSS, and divided by
    its cells (records × attributes)."""
    data = generate_dataset(1000, seed=7)
    files = []
    for relation in (data.credit, data.billing):
        path = tmp_path / f"{relation.schema.name}.csv"
        save_relation(relation, path)
        files.append((relation.schema, path))
    load_relation(*files[0])  # the codec's first use is not the relation's
    overhead = cells = 0
    for schema, path in files:
        gc.collect()
        tracemalloc.start()
        try:
            loaded = load_relation(schema, path)
            gc.collect()  # the free lists are not the relation's either
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        values = {id(value): value for row in loaded for value in row.values().values()}
        values.pop(id(None), None)
        overhead += kept - sum(map(sys.getsizeof, values.values()))
        cells += len(loaded) * len(schema.attribute_names)
        del loaded
    assert overhead / cells <= BYTES_PER_CELL_BOUND
