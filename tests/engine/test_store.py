"""MatchStore: indexing, probing, union-find clusters, counters."""

from __future__ import annotations

import pytest

from repro.core.findrcks import find_rcks
from repro.core.schema import LEFT, RIGHT
from repro.engine import MatchStore, node_of
from repro.plan import RCKIndex, indexes_from_rcks
from repro.relations.relation import Relation


@pytest.fixture
def store(sigma, target):
    return MatchStore(target, find_rcks(sigma, target, m=5))


class TestRCKIndex:
    def test_probe_returns_other_side(self, pair):
        index = RCKIndex("ln", [("LN", "LN")])
        credit = Relation(pair.left)
        tid = credit.insert({"LN": "Clifford"})
        key = index.add(LEFT, credit[tid], index.key_for(LEFT, credit[tid]))
        billing = Relation(pair.right)
        other = billing.insert({"LN": "Clivord"})  # same Soundex code
        row = billing[other]
        assert index.probe(RIGHT, row, index.key_for(RIGHT, row)) == [tid]
        # A left-side probe must not return the left-side entry itself.
        assert index.probe(LEFT, credit[tid], key) == []

    def test_unknown_key_probes_empty(self, pair):
        index = RCKIndex("ln", [("LN", "LN")])
        billing = Relation(pair.right)
        tid = billing.insert({"LN": "Smith"})
        row = billing[tid]
        assert index.probe(RIGHT, row, index.key_for(RIGHT, row)) == []

    def test_needs_pairs(self):
        with pytest.raises(ValueError):
            RCKIndex("empty", [])

    def test_indexes_from_rcks_dedupes(self, sigma, target):
        rcks = find_rcks(sigma, target, m=5)
        indexes = indexes_from_rcks(rcks, key_length=1)
        specs = [index.pairs for index in indexes]
        assert len(specs) == len(set(specs))
        assert 1 <= len(indexes) <= len(rcks)

    def test_indexes_from_rcks_validates(self, sigma, target):
        rcks = find_rcks(sigma, target, m=5)
        with pytest.raises(ValueError):
            indexes_from_rcks(rcks, key_length=0)
        with pytest.raises(ValueError):
            indexes_from_rcks([])


class TestMatchStore:
    def test_needs_rcks(self, target):
        with pytest.raises(ValueError):
            MatchStore(target, [])

    def test_add_registers_singleton(self, store):
        tid = store.add(LEFT, {"FN": "Mark", "LN": "Clifford"})
        cluster = store.cluster_of(LEFT, tid)
        assert cluster.left_tids == frozenset({tid})
        assert cluster.right_tids == frozenset()
        assert store.clusters() == []  # singletons are not matched clusters
        assert len(store.clusters(include_singletons=True)) == 1

    def test_arrival_values_are_immutable_copies(self, store):
        tid = store.add(LEFT, {"FN": "Mark", "LN": "Clifford"})
        arrival = store.arrival_values(LEFT, tid)
        arrival["FN"] = "damaged"
        assert store.arrival_values(LEFT, tid)["FN"] == "Mark"
        # Repairing the current value leaves the arrival copy alone.
        store.left.set_value(tid, "FN", "Marcus")
        assert store.arrival_values(LEFT, tid)["FN"] == "Mark"

    def test_neighbors_probe_all_indexes(self, store):
        left_tid = store.add(
            LEFT,
            {"FN": "Mark", "LN": "Clifford", "tel": "908-1111111",
             "addr": "10 Oak Street", "email": "mc@gm.com"},
        )
        # Shares only the phone with the stored record.
        right_tid = store.add(
            RIGHT,
            {"FN": "Zed", "LN": "Zz", "phn": "908-1111111",
             "post": "elsewhere", "email": "zz@xx.com"},
        )
        assert store.neighbors(RIGHT, right_tid) == [left_tid]

    def test_union_and_counters(self, store):
        left_tid = store.add(LEFT, {"FN": "Mark"})
        right_tid = store.add(RIGHT, {"FN": "Mark"})
        assert store.union(node_of(LEFT, left_tid), node_of(RIGHT, right_tid))
        assert not store.union(
            node_of(LEFT, left_tid), node_of(RIGHT, right_tid)
        )
        assert store.merges == 1
        assert store.same(node_of(LEFT, left_tid), node_of(RIGHT, right_tid))
        [cluster] = store.clusters()
        assert cluster.left_tids == frozenset({left_tid})
        assert cluster.right_tids == frozenset({right_tid})

    def test_explicit_tids_preserved(self, store):
        assert store.add(LEFT, {"FN": "A"}, tid=17) == 17
        assert store.add(LEFT, {"FN": "B"}) == 18

    def test_stats_shape(self, store):
        store.add(LEFT, {"FN": "Mark"})
        stats = store.stats()
        assert stats["left_rows"] == 1
        assert stats["right_rows"] == 0
        assert stats["matched_clusters"] == 0
        assert stats["comparisons"] == 0
        assert set(stats["indexes"]) == {index.name for index in store.indexes}
