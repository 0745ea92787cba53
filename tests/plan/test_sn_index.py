"""Unit tests for the window-encoded sorted-neighborhood index.

The rank-encoding invariants in isolation: incremental insertion equals
batch construction, a probe is exactly the rank-range query, runs split
at block boundaries (no candidate pair spans one), multi-pass rotation recovers
pairs that disagree on one leading attribute, and the degenerate
window < 2 yields no candidates.  The batch loop is held to the per-pass
definition it replaced, on generated blocks around the window size.
End-to-end stream/batch equivalence lives in ``test_sn_differential.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.schema import LEFT, RIGHT, RelationSchema
from repro.plan.blocking import attribute_key, window_candidates
from repro.plan.sn_index import WindowedSNIndex, run_pairs, window_neighbors
from repro.relations.relation import Relation


SCHEMA = RelationSchema("R", ["K", "V"])


def _relation(values, attribute="K"):
    relation = Relation(SCHEMA)
    for value in values:
        relation.insert({attribute: value, "V": None})
    return relation


def _add(backend, side, row):
    """Index ``row`` the way a store does: under the keys derived once."""
    backend.add(side, row, backend.keys_for(side, row))


def _probe(backend, side, row):
    return backend.probe(side, row, backend.keys_for(side, row))


def _index(window=3, pairs=(("K", "K"),)):
    # encode_attributes=() keeps keys raw: tests control blocks exactly.
    return WindowedSNIndex(pairs, window=window, encode_attributes=())


# ----------------------------------------------------------------------
# The batch loop, held to the per-pass definition
# ----------------------------------------------------------------------

def _per_pass_definition(index, left, right):
    """The batch loop the index ran before it bucketed: key every row once,
    rotate every entry per pass, sort every block by (key, side, tid),
    window it, union the pairs in a set and sort them."""
    if index.window < 2:
        return []
    entries = [(index.key_for(LEFT, row), 0, row.tid) for row in left] + [
        (index.key_for(RIGHT, row), 1, row.tid) for row in right
    ]
    pairs = set()
    for position in range(index.pass_count):
        if position:
            entries = [(key[1:] + key[:1], side, tid) for key, side, tid in entries]
        blocks = {}
        for entry in entries:
            blocks.setdefault(entry[0][0], []).append(entry)
        for run in blocks.values():
            run.sort()
            pairs.update(run_pairs(run, index.window))
    return sorted(pairs)


GENERATED = RelationSchema("R", ["FN", "K", "V"])

#: Few values, so blocks run past the window; ``None`` and ``""`` both
#: key as ``""`` (the null block), and "Ann" / "Anne" share a Soundex code.
GENERATED_VALUES = st.sampled_from([None, "", "Ann", "Anne", "x", "y"])


@st.composite
def generated_relations(draw):
    """Rows under explicit tids inserted in drawn order, not ascending;
    possibly none."""
    relation = Relation(GENERATED)
    for tid in draw(st.lists(st.integers(0, 60), max_size=14, unique=True)):
        row = draw(st.fixed_dictionaries({name: GENERATED_VALUES for name in ("FN", "K", "V")}))
        relation.insert(row, tid=tid)
    return relation


@st.composite
def generated_indexes(draw):
    """One to three passes, a window from 2 to 12 (sometimes below 2), and
    the FN pass Soundex-encoded or raw."""
    pairs = draw(st.lists(
        st.sampled_from([("FN", "FN"), ("K", "K"), ("V", "V"), ("K", "V")]),
        min_size=1, max_size=3, unique=True,
    ))
    window = draw(st.one_of(st.integers(2, 12), st.integers(-1, 1)))
    encode = draw(st.sampled_from([(), ("FN",)]))
    return WindowedSNIndex(pairs, window=window, encode_attributes=encode)


@settings(max_examples=300, deadline=None)
@given(generated_indexes(), generated_relations(), generated_relations(), st.booleans())
def test_batch_candidates_are_the_per_pass_definition(index, left, right, self_match):
    """Same pairs, same order.  Killed by windowing blocks of exactly
    ``window + 1`` entries as one product, by sorting a long block by its
    leading component only, and by dropping the (side, tid) tie-break."""
    if self_match:
        right = left
    assert index.candidates(left, right) == _per_pass_definition(index, left, right)


@pytest.mark.parametrize("window", range(2, 7))
def test_a_block_one_past_the_window_is_windowed(window):
    """At ``window`` entries a block is its own window; at ``window + 1``
    its first and last entries are a window apart and do not pair."""
    index = _index(window=window, pairs=BLOCKED_PAIRS)
    left = _blocked([("a", "0")])
    right = _blocked([("a", f"{rank}") for rank in range(1, window + 1)])
    assert index.candidates(left, right) == [(0, tid) for tid in range(window - 1)]
    right = _blocked([("a", f"{rank}") for rank in range(1, window)])
    assert index.candidates(left, right) == [(0, tid) for tid in range(window - 1)]


class TestIncrementalEqualsBatch:
    @settings(max_examples=200, deadline=None)
    @given(generated_indexes(), generated_relations(), generated_relations(), st.booleans())
    @example(
        _index(window=3),
        _relation(["a1", "a2", "b1", "b2", "b3"]),
        _relation(["a1", "a9", "b2", "c1"]),
        False,
    )
    def test_scan_candidates_matches_batch(self, index, left, right, self_match):
        if self_match:
            right = left
        # A fresh index each time Hypothesis runs a case, the example too.
        index = WindowedSNIndex(index.pairs, index.window, index.encode_attributes)
        for row in left:
            _add(index, LEFT, row)
        for row in right:
            _add(index, RIGHT, row)
        assert index.scan_candidates() == index.candidates(left, right)

    def test_arrival_order_is_irrelevant(self):
        left = _relation(["a", "b", "c", "d"])
        right = _relation(["a", "b", "c", "d"])
        forward = _index(window=2)
        backward = _index(window=2)
        rows = [(LEFT, row) for row in left] + [(RIGHT, row) for row in right]
        for side, row in rows:
            _add(forward, side, row)
        for side, row in reversed(rows):
            _add(backward, side, row)
        assert forward.scan_candidates() == backward.scan_candidates()

    def test_probe_of_ranked_row_is_the_window(self):
        # One block, window 2: a probe sees only rank-adjacent entries.
        left = _relation(["x1", "x3", "x5"])
        right = _relation(["x2", "x4", "x6"])
        index = _index(window=2, pairs=(("V", "V"), ("K", "K")))
        # All rows share V=None, so block confinement keeps pass 0 in a
        # single run ordered by (V, K); pass 1 splits per K value.
        for row in left:
            _add(index, LEFT, row)
        for row in right:
            _add(index, RIGHT, row)
        # Pass 0's run order is x1 x2 x3 x4 x5 x6 (K tie-breaks); each
        # probe sees its rank neighbors on the other side only.
        assert _probe(index, LEFT, left[0]) == [0]          # x1 -> x2
        assert _probe(index, LEFT, left[1]) == [0, 1]       # x3 -> x2, x4
        assert _probe(index, RIGHT, right[2]) == [2]        # x6 -> x5


def _blocked(values):
    """Rows with K as the block label and V as the in-block sort key."""
    relation = Relation(SCHEMA)
    for block, sub in values:
        relation.insert({"K": block, "V": sub})
    return relation


#: A single-pass two-attribute sort key: blocks on K, orders by V within.
BLOCKED_PAIRS = (("K", "K"), ("V", "V"))


class TestBlockConfinement:
    def test_no_pairs_across_blocks(self):
        # Two blocks ('a', 'b') that a global window would bridge: the
        # K=K pass confines; the V=V pass sees distinct V values only.
        left = _blocked([("a", "1"), ("a", "2"), ("b", "3")])
        right = _blocked([("a", "4"), ("b", "5"), ("b", "6")])
        index = _index(window=10, pairs=BLOCKED_PAIRS)
        pairs = index.candidates(left, right)
        assert pairs
        for left_tid, right_tid in pairs:
            assert left[left_tid]["K"] == right[right_tid]["K"]

    def test_blocks_become_shards(self):
        # Disjoint blocks produce disjoint groups of candidate pairs.
        left = _blocked(
            [(block, f"l{i}") for block in "abcd" for i in range(3)]
        )
        right = _blocked(
            [(block, f"r{i}") for block in "abcd" for i in range(3)]
        )
        index = _index(window=10, pairs=BLOCKED_PAIRS)
        pairs = index.candidates(left, right)
        assert {(left[l]["K"], right[r]["K"]) for l, r in pairs} == {
            (block, block) for block in "abcd"
        }

    def test_global_window_chains_what_the_index_splits(self):
        # The contrast that motivates the index: same rows, same window,
        # global-window candidates pair records across the blocks.
        left = _blocked([(block, f"l{i}") for block in "ab" for i in range(3)])
        right = _blocked([(block, f"r{i}") for block in "ab" for i in range(3)])
        sort_key = attribute_key(["K", "V"], [None, None])
        index = _index(window=10, pairs=BLOCKED_PAIRS)

        def crossing(pairs):
            return [(l, r) for l, r in pairs if left[l]["K"] != right[r]["K"]]

        assert crossing(window_candidates(left, right, sort_key, sort_key, 10))
        assert not crossing(index.candidates(left, right))

    def test_one_block_is_the_global_window(self):
        # Both slide the same window loop: with every row in block 'a',
        # the K-led pass is the global window on the same key (the V-led
        # pass pairs nothing, no V value occurring on both sides).
        left = _blocked([("a", f"{i:02d}") for i in range(0, 40, 2)])
        right = _blocked([("a", f"{i:02d}") for i in range(1, 40, 4)])
        index = _index(window=4, pairs=BLOCKED_PAIRS)
        sort_key = attribute_key(["K", "V"])
        assert index.candidates(left, right) == window_candidates(
            left, right, sort_key, sort_key, 4
        )


class TestMultiPassRotation:
    def test_each_attribute_leads_one_pass(self):
        index = WindowedSNIndex(
            [("A", "A"), ("B", "B"), ("C", "C")], encode_attributes=()
        )
        assert index.pass_count == 3
        assert [rotation[0] for rotation in index.passes] == [
            ("A", "A"), ("B", "B"), ("C", "C")
        ]

    def test_disagreement_on_one_attribute_is_recovered(self):
        # Rows disagree on K (different blocks in pass 0) but agree on V:
        # pass 1 (led by V) still pairs them.
        schema = RelationSchema("R", ["K", "V"])
        left = Relation(schema)
        right = Relation(schema)
        left.insert({"K": "alpha", "V": "shared"})
        right.insert({"K": "omega", "V": "shared"})
        single = WindowedSNIndex([("K", "K")], encode_attributes=())
        assert single.candidates(left, right) == []
        multi = WindowedSNIndex(
            [("K", "K"), ("V", "V")], encode_attributes=()
        )
        assert multi.candidates(left, right) == [(0, 0)]

    def test_disagreement_on_every_attribute_stays_dropped(self):
        schema = RelationSchema("R", ["K", "V"])
        left = Relation(schema)
        right = Relation(schema)
        left.insert({"K": "alpha", "V": "one"})
        right.insert({"K": "omega", "V": "two"})
        multi = WindowedSNIndex(
            [("K", "K"), ("V", "V")], encode_attributes=()
        )
        assert multi.candidates(left, right) == []


class TestDegenerateWindows:
    @pytest.mark.parametrize("window", [0, 1, -3])
    def test_window_below_two_yields_nothing(self, window):
        left = _relation(["a", "a", "a"])
        right = _relation(["a", "a", "a"])
        index = _index(window=window)
        for row in left:
            _add(index, LEFT, row)
        for row in right:
            _add(index, RIGHT, row)
        assert index.candidates(left, right) == []
        assert index.scan_candidates() == []
        assert _probe(index, LEFT, left[0]) == []

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError, match="at least one attribute pair"):
            WindowedSNIndex([])


class TestHelpers:
    def test_window_neighbors_absent_entry_uses_insertion_point(self):
        run = [(("b",), 0, 0), (("d",), 1, 1), (("f",), 1, 2)]
        # An un-ranked probe key 'c' would insert at rank 1: 'd' is at
        # distance 1, 'f' at distance 2 — window 2 sees only 'd'.
        assert window_neighbors(run, (("c",), 0, 9), 2) == [1]
        assert window_neighbors(run, (("c",), 0, 9), 3) == [1, 2]

    def test_run_pairs_is_side_aware(self):
        run = [(("a",), 0, 0), (("b",), 0, 1), (("c",), 1, 7)]
        assert run_pairs(run, 10) == {(0, 7), (1, 7)}
        assert run_pairs(run, 2) == {(1, 7)}

    def test_index_stats_and_describe(self):
        index = WindowedSNIndex(
            [("K", "K"), ("V", "V")], window=4, encode_attributes=()
        )
        left = _relation(["a1", "b1"])
        for row in left:
            _add(index, LEFT, row)
        stats = index.index_stats()
        assert set(stats) == {"sn:K+V", "sn:V+K"}
        assert stats["sn:K+V"]["buckets"] == 2      # blocks a, b
        assert stats["sn:V+K"]["buckets"] == 1      # all V=None
        assert stats["sn:V+K"]["largest_bucket"] == 2
        description = index.describe()
        assert description.startswith("sorted-neighborhood(window=4")
        assert "block boundaries" in description

    def test_from_rcks_encodes_like_the_hash_backend(self):
        # Soundex on the encode set: 'Clifford' and 'Clivord' share a
        # block, so the typo'd name still ranks adjacently.
        schema = RelationSchema("R", ["LN", "FN"])
        left = Relation(schema)
        right = Relation(schema)
        left.insert({"LN": "Clifford", "FN": "Ann"})
        right.insert({"LN": "Clivord", "FN": "Ann"})
        index = WindowedSNIndex(
            [("LN", "LN")], encode_attributes=("LN",)
        )
        assert index.candidates(left, right) == [(0, 0)]
