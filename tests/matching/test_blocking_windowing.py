"""Unit tests for blocking and windowing candidate generation."""

import pytest

from repro.core.rck import RelativeKey
from repro.core.schema import RelationSchema
from repro.experiments.exp_blocking import rck_index
from repro.metrics.soundex import soundex
from repro.plan.blocking import (
    HashBlockingBackend,
    RCKIndex,
    attribute_key,
    hash_candidates,
    rck_sort_keys,
    window_candidates,
)
from repro.relations.relation import Relation


@pytest.fixture
def left_relation():
    schema = RelationSchema("L", ["name", "zip"])
    return Relation(
        schema,
        [
            {"name": "Clifford", "zip": "07974"},
            {"name": "Smith", "zip": "07974"},
            {"name": "Jones", "zip": "10001"},
        ],
    )


@pytest.fixture
def right_relation():
    schema = RelationSchema("R", ["name", "zip"])
    return Relation(
        schema,
        [
            {"name": "Clivord", "zip": "07974"},
            {"name": "Smith", "zip": "99999"},
        ],
    )


class TestAttributeKey:
    def test_plain_key(self, left_relation):
        key = attribute_key(["zip"])
        assert key(left_relation[0]) == ("07974",)

    def test_encoded_key(self, left_relation):
        key = attribute_key(["name"], [soundex])
        assert key(left_relation[0]) == (soundex("Clifford"),)

    def test_null_encoded_as_empty(self):
        schema = RelationSchema("L", ["name"])
        relation = Relation(schema, [{"name": None}])
        key = attribute_key(["name"])
        assert key(relation[0]) == ("",)

    def test_encoder_count_validation(self):
        with pytest.raises(ValueError):
            attribute_key(["a", "b"], [None])


class TestBlocking:
    def test_exact_blocking(self, left_relation, right_relation):
        key_left = attribute_key(["zip"])
        key_right = attribute_key(["zip"])
        pairs = hash_candidates(left_relation, right_relation, key_left, key_right)
        assert set(pairs) == {(0, 0), (1, 0)}

    def test_soundex_blocking_bridges_typos(self, left_relation, right_relation):
        key = attribute_key(["name"], [soundex])
        pairs = hash_candidates(left_relation, right_relation, key, key)
        assert (0, 0) in pairs  # Clifford ~ Clivord

    def test_multi_pass_union(self, left_relation, right_relation):
        zip_key = attribute_key(["zip"])
        pairs = HashBlockingBackend(
            [
                RCKIndex("zip", [("zip", "zip")], encode_attributes=()),
                RCKIndex("name", [("name", "name")], encode_attributes=["name"]),
            ]
        ).candidates(left_relation, right_relation)
        single_zip = set(
            hash_candidates(left_relation, right_relation, zip_key, zip_key)
        )
        assert single_zip <= set(pairs)
        assert (1, 1) in pairs  # Smith/Smith found by the name pass only


class TestRckBlockingKeys:
    """The Exp-4 recipe: three attribute pairs from the top two RCKs."""

    def test_keys_from_rcks(self, target):
        rcks = [
            RelativeKey.from_triples(
                target, [("LN", "LN", "="), ("tel", "phn", "=")]
            ),
            RelativeKey.from_triples(target, [("email", "email", "=")]),
        ]
        index = rck_index(rcks)
        # Needs a row-like object over credit/billing; use Fig. 1.
        from repro.datagen.generator import figure1_instances

        _, credit, billing = figure1_instances()
        assert len(index.left_key(credit[0])) == 3
        assert len(index.right_key(billing[0])) == 3

    def test_too_few_pairs_rejected(self, target):
        rcks = [RelativeKey.from_triples(target, [("email", "email", "=")])]
        with pytest.raises(ValueError, match="distinct attribute"):
            rck_index(rcks)

    def test_requires_rcks(self):
        with pytest.raises(ValueError):
            rck_index([])


class TestWindowing:
    def test_window_two_adjacent_only(self, left_relation, right_relation):
        key = attribute_key(["zip"])
        pairs = window_candidates(left_relation, right_relation, key, key, window=2)
        # sorted by zip: (L0, L1, R0 @07974), (L2 @10001), (R1 @99999)
        assert (1, 0) in pairs

    def test_window_grows_candidates(self, left_relation, right_relation):
        key = attribute_key(["zip"])
        small = set(window_candidates(left_relation, right_relation, key, key, 2))
        large = set(window_candidates(left_relation, right_relation, key, key, 5))
        assert small <= large
        assert len(large) == 6  # all cross pairs within one window of 5

    def test_window_below_two_empty(self, left_relation, right_relation):
        key = attribute_key(["zip"])
        assert window_candidates(left_relation, right_relation, key, key, 1) == []

    def test_only_cross_side_pairs(self, left_relation, right_relation):
        key = attribute_key(["zip"])
        pairs = window_candidates(left_relation, right_relation, key, key, 10)
        for left_tid, right_tid in pairs:
            assert left_tid in left_relation
            assert right_tid in right_relation

    def test_multi_pass_window(self, left_relation, right_relation):
        # A multi-pass run is the union of its passes' windows.
        zip_key = attribute_key(["zip"])
        name_key = attribute_key(["name"], [soundex])
        by_zip = set(
            window_candidates(left_relation, right_relation, zip_key, zip_key, 2)
        )
        union = by_zip | set(
            window_candidates(left_relation, right_relation, name_key, name_key, 2)
        )
        assert (1, 1) in union - by_zip  # Smith/Smith: the name pass only

    def test_rck_sort_keys(self, target):
        rcks = [
            RelativeKey.from_triples(
                target, [("LN", "LN", "="), ("tel", "phn", "=")]
            ),
            RelativeKey.from_triples(target, [("email", "email", "=")]),
        ]
        left_key, right_key = rck_sort_keys(rcks, attribute_count=2)
        from repro.datagen.generator import figure1_instances

        _, credit, billing = figure1_instances()
        assert left_key(credit[0]) == ("Clifford", "908-1111111")
        assert right_key(billing[0]) == ("Clifford", "908")
