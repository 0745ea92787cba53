"""Unit tests for the kernel's blocking backends."""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Workspace
from repro.core.findrcks import find_rcks
from repro.core.rck import RelativeKey
from repro.core.schema import LEFT, RIGHT, ComparableLists, RelationSchema, SchemaPair
from repro.experiments.baselines.windowing import rck_sort_keys, window_candidates
from repro.datagen.generator import generate_dataset
from repro.datagen.schemas import extended_mds
from repro.metrics.soundex import soundex
from repro.plan.blocking import (
    DEFAULT_ENCODED_ATTRIBUTES,
    CandidateSet,
    HashBlockingBackend,
    RCKIndex,
    attribute_key,
    build_blocking,
    hash_candidates,
)
from repro.relations.relation import Relation


def _add(backend, side, row):
    """Index ``row`` the way a store does: under the keys derived once."""
    backend.add(side, row, backend.keys_for(side, row))


def _probe(backend, side, row):
    return backend.probe(side, row, backend.keys_for(side, row))


def assert_runs(candidates):
    """The CSR shape of a :class:`CandidateSet`: three ``array('i')``,
    ``lefts`` strictly ascending, ``starts`` from 0 to ``len(rights)``
    one run per left tid, each run non-empty and ascending."""
    lefts, starts, rights = candidates.lefts, candidates.starts, candidates.rights
    assert {lefts.typecode, starts.typecode, rights.typecode} == {"i"}
    assert all(a < b for a, b in zip(lefts, lefts[1:]))
    assert len(starts) == len(lefts) + 1
    assert starts[0] == 0 and starts[-1] == len(rights) == len(candidates)
    assert all(a < b for a, b in zip(starts, starts[1:]))
    for start, end in zip(starts, starts[1:]):
        run = rights[start:end]
        assert list(run) == sorted(run)


def _one_pass(left, right, left_key, right_key):
    """One hash pass by its definition: bucket the left rows by key, pair
    every right row with its bucket.  Multi-pass candidates are the
    sorted union of the passes' pairs."""
    buckets = {}
    for row in left:
        buckets.setdefault(left_key(row), []).append(row.tid)
    return [
        (left_tid, row.tid)
        for row in right
        for left_tid in buckets.get(right_key(row), ())
    ]


@pytest.fixture
def rcks(ext_sigma, ext_target):
    return find_rcks(ext_sigma, ext_target, m=5)


class TestHashBlockingBackend:
    def test_requires_indexes(self):
        with pytest.raises(ValueError, match="at least one index"):
            HashBlockingBackend([])

    def test_batch_candidates_match_multi_pass_blocking(
        self, rcks, small_dataset
    ):
        backend = HashBlockingBackend.per_rck(rcks)
        expected = {
            pair
            for index in backend.indexes
            for pair in _one_pass(
                small_dataset.credit, small_dataset.billing,
                index.left_key, index.right_key,
            )
        }
        assert list(backend.candidates(
            small_dataset.credit, small_dataset.billing
        )) == sorted(expected)

    def test_incremental_probe_agrees_with_batch(self, rcks, small_dataset):
        """add/probe yields exactly the pairs batch blocking generates."""
        backend = HashBlockingBackend.per_rck(rcks)
        credit, billing = small_dataset.credit, small_dataset.billing
        for row in credit:
            _add(backend, LEFT, row)
        batch = set(backend.candidates(credit, billing))
        probed = {
            (left_tid, row.tid)
            for row in billing
            for left_tid in _probe(backend, RIGHT, row)
        }
        assert probed == batch

    def test_batch_candidates_leave_postings_untouched(self, rcks, small_dataset):
        backend = HashBlockingBackend.per_rck(rcks)
        backend.candidates(small_dataset.credit, small_dataset.billing)
        row = small_dataset.billing.rows()[0]
        assert _probe(backend, RIGHT, row) == []

    def test_describe_names_keys(self, rcks):
        assert "hash(" in HashBlockingBackend.per_rck(rcks).describe()


class TestGlobalWindow:
    def test_window_below_two_yields_no_candidates(self, rcks, small_dataset):
        """w < 2 means no two elements ever share a window."""
        left_key, right_key = rck_sort_keys(rcks)
        assert window_candidates(
            small_dataset.credit, small_dataset.billing, left_key, right_key, 1
        ) == []

    def test_candidates_are_cross_side_pairs_within_the_window(
        self, rcks, small_dataset
    ):
        """Sort the merged sequence once, pair across it at rank < w."""
        credit, billing = small_dataset.credit, small_dataset.billing
        left_key, right_key = rck_sort_keys(rcks)
        merged = sorted(
            [(left_key(row), 0, row.tid) for row in credit]
            + [(right_key(row), 1, row.tid) for row in billing]
        )
        expected = {
            (a[2], b[2]) if a[1] == 0 else (b[2], a[2])
            for i, a in enumerate(merged)
            for b in merged[i + 1 : i + 10]
            if a[1] != b[1]
        }
        assert window_candidates(
            credit, billing, left_key, right_key, 10
        ) == sorted(expected)


def _sorted_neighborhood(rcks, window):
    return build_blocking(
        rcks, 1, DEFAULT_ENCODED_ATTRIBUTES, "sorted-neighborhood", window, None
    )


def test_sorted_neighborhood_describe_reports_window(rcks):
    assert "window=4" in _sorted_neighborhood(rcks, 4).describe()


@pytest.mark.parametrize("candidates_of", (
    lambda rcks, left, right: HashBlockingBackend.per_rck(rcks).candidates(
        left, right
    ),
    lambda rcks, left, right: window_candidates(
        left, right, *rck_sort_keys(rcks), 10
    ),
    lambda rcks, left, right: _sorted_neighborhood(rcks, 10).candidates(
        left, right
    ),
), ids=("hash", "global-window", "windowed-sn"))
def test_candidates_come_back_once_each_ascending(
    candidates_of, rcks, small_dataset
):
    """The contract of ``BlockingBackend.candidates``: each pair once,
    ascending — for a backend, as runs the chase can bisect."""
    candidates = candidates_of(
        rcks, small_dataset.credit, small_dataset.billing
    )
    assert len(candidates) > 100
    assert list(candidates) == sorted(set(candidates))
    if isinstance(candidates, CandidateSet):
        assert_runs(candidates)


@pytest.mark.parametrize("wide, typecode", [
    (2**31, "q"), (-(2**31) - 1, "q"), (2**63, None), (-(2**63) - 1, None),
], ids=("above-int", "below-int", "above-int64", "below-int64"))
def test_a_tid_beyond_a_c_int_widens_its_column(wide, typecode):
    """A tid that does not fit ``array('i')`` widens the column it lands
    in — to ``array('q')``, or a list beyond 64 bits — keeping every tid
    added before it; ``starts`` stays packed."""
    lefts = sorted([-3, 0, wide])
    runs = [[1, 2], sorted([5, 9, wide]), [7]]
    candidates = CandidateSet()
    for left, run in zip(lefts, runs):
        candidates.add_run(left, run)
    expected = [(left, right) for left, run in zip(lefts, runs) for right in run]
    assert list(candidates) == expected
    assert candidates[3] == expected[3] and candidates[-1] == expected[-1]
    assert getattr(candidates.lefts, "typecode", None) == typecode
    assert getattr(candidates.rights, "typecode", None) == typecode
    assert candidates.starts.typecode == "i"
    assert candidates == CandidateSet.of(reversed(expected))
    assert getattr(CandidateSet.of(expected).rights, "typecode", None) == typecode


def test_a_set_over_lists_reads_as_the_packed_one():
    """Runs handed in as lists (an engine delta's probe) are held as
    they are, and read and compare as the packed set of the same pairs."""
    probe = [1, 4, 6]
    as_left = CandidateSet([9], [0, 3], probe)
    as_right = CandidateSet(probe, range(4), [9] * 3)
    assert as_left.rights is probe and as_right.lefts is probe
    assert as_left == CandidateSet.of([(9, 1), (9, 4), (9, 6)])
    assert list(as_right) == [(1, 9), (4, 9), (6, 9)]
    assert as_right == CandidateSet.of(list(as_right)) != as_left
    assert as_right[1] == (4, 9) and len(as_right) == 3


# ----------------------------------------------------------------------
# The one hash loop, held to the definition
# ----------------------------------------------------------------------

NAMES = ("FN", "LN", "zip")
PAIR = SchemaPair(RelationSchema("L", NAMES), RelationSchema("R", NAMES))
TARGET = ComparableLists(PAIR, list(NAMES), list(NAMES))

#: So few values that buckets collide and passes overlap; ``None`` keys
#: like ``""``, so nulls share a bucket.
VALUES = st.sampled_from([None, "", "Ann", "Anne", "Smith", "Smyth", "07974"])

#: One pass's attribute pairs, one of them across attributes.
KEY_PAIRS = st.lists(
    st.sampled_from([("FN", "FN"), ("LN", "LN"), ("zip", "zip"), ("FN", "LN")]),
    min_size=1,
    max_size=3,
    unique=True,
)


@st.composite
def relations(draw, schema):
    """Rows under explicit tids inserted in drawn order, not ascending;
    possibly none."""
    relation = Relation(schema)
    for tid in draw(st.lists(st.integers(0, 400), max_size=10, unique=True)):
        row = draw(st.fixed_dictionaries({name: VALUES for name in NAMES}))
        relation.insert(row, tid=tid)
    return relation


@st.composite
def hash_backends(draw):
    """What a spec can declare: one pass per RCK at key length 1 or 2, or
    one explicit ``key_pairs`` pass, under any encode set."""
    encode = draw(st.lists(st.sampled_from(NAMES), unique=True))
    if draw(st.booleans()):
        return build_blocking([], 1, encode, "hash", 10, draw(KEY_PAIRS))
    rcks = [
        RelativeKey.from_triples(TARGET, [(l, r, "=") for l, r in pairs])
        for pairs in draw(st.lists(KEY_PAIRS, min_size=1, max_size=3))
    ]
    key_length = draw(st.sampled_from((1, 2)))
    return build_blocking(rcks, key_length, encode, "hash", 10, None)


@settings(max_examples=200, deadline=None)
@given(hash_backends(), relations(PAIR.left), relations(PAIR.right), st.booleans())
def test_candidates_are_the_sorted_union_of_the_passes(
    backend, left, right, self_match
):
    """Batch, one pass and probe are the same union, in the same order."""
    if self_match:
        right = left
    passes = [
        _one_pass(left, right, index.left_key, index.right_key)
        for index in backend.indexes
    ]
    expected = sorted(set().union(*passes))
    candidates = backend.candidates(left, right)
    assert list(candidates) == expected
    assert_runs(candidates)
    for index, pairs in zip(backend.indexes, passes):
        one_pass = hash_candidates(left, right, index.left_key, index.right_key)
        assert list(one_pass) == sorted(pairs)
        assert_runs(one_pass)
    for row in right:
        _add(backend, RIGHT, row)
    for row in left:
        assert [(row.tid, tid) for tid in _probe(backend, LEFT, row)] == [
            pair for pair in expected if pair[0] == row.tid
        ]


def test_a_pair_several_passes_find_comes_back_once():
    left, right = Relation(PAIR.left), Relation(PAIR.right)
    left.insert({"FN": "Ann", "LN": "Smith", "zip": "1"}, tid=5)
    left.insert({"FN": "Bob", "LN": "Smith", "zip": "2"}, tid=2)
    right.insert({"FN": "Ann", "LN": "Smith", "zip": "2"}, tid=9)
    right.insert({"FN": "Ann", "LN": "Jones", "zip": "1"}, tid=4)
    backend = HashBlockingBackend(
        [RCKIndex(name, [(name, name)], ()) for name in NAMES]
    )
    # (2, 9) by LN and zip, (5, 9) by FN and LN, (5, 4) by FN and zip.
    assert list(backend.candidates(left, right)) == [(2, 9), (5, 4), (5, 9)]


@pytest.mark.parametrize("encoder", (None, soundex, str.upper), ids=("raw", "soundex", "upper"))
@pytest.mark.parametrize("value", (None, "", "Clifford", 7), ids=repr)
def test_one_attribute_keys_like_a_column_of_many(encoder, value):
    """The one- and many-attribute key closures agree: ``None`` keys as
    ``""``, then the encoder runs."""
    row = Relation(RelationSchema("R", ["A", "B"]), [{"A": value, "B": None}])[0]
    text = "" if value is None else str(value)
    expected = encoder(text) if encoder is not None else text
    assert attribute_key(["A"], [encoder])(row) == (expected,)
    assert attribute_key(["A", "B"], [encoder, None])(row) == (expected, "")
    assert attribute_key(["B", "A"], [None, encoder])(row) == ("", expected)
    if encoder is None:
        assert attribute_key(["A"])(row) == (expected,)
        assert attribute_key(["B", "A"])(row) == ("", expected)


def test_candidates_hold_no_pair_set_beside_their_list():
    """Generating the list peaks within 1.3x of what the list holds: no
    set of pair tuples, no per-pass lists, no sorted copy (the union of
    per-pass lists through a set peaks above twice the list here)."""
    pair = SchemaPair(RelationSchema("L", ["K", "V"]), RelationSchema("R", ["K", "V"]))
    left, right = Relation(pair.left), Relation(pair.right)
    # 40 blocks of 30 x 30 tuples; the K and V passes find the same pairs.
    for tid in range(1200):
        for relation in (left, right):
            relation.insert({"K": f"k{tid // 30}", "V": f"v{tid // 30}"}, tid=tid)
    backend = HashBlockingBackend(
        [RCKIndex("k", [("K", "K")], ()), RCKIndex("v", [("V", "V")], ())]
    )
    tracemalloc.start()
    candidates = backend.candidates(left, right)
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(candidates) == 40 * 30 * 30
    assert peak <= 1.3 * held


def test_a_candidate_set_holds_at_most_twelve_bytes_a_pair():
    """Runs, not pair tuples: the candidate set of a K=2000 hash match
    (``key_length=1``, seed 7) holds at most 12 bytes a pair under
    tracemalloc — a list of ``(left, right)`` tuples holds some 64."""
    source = generate_dataset(2000, seed=7)
    workspace = (
        Workspace.builder()
        .pair(source.pair)
        .target(source.target)
        .mds(extended_mds(source.pair))
        .blocking("hash", key_length=1)
        .execution(top_k=5)
        .workspace()
    )
    # Compiled and keyed once before: only the set itself is measured.
    workspace.candidates(source.credit, source.billing)
    gc.collect()
    tracemalloc.start()
    candidates = workspace.candidates(source.credit, source.billing)
    gc.collect()
    held, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert isinstance(candidates, CandidateSet)
    assert len(candidates) > 15_000
    assert held <= 12 * len(candidates)


# ----------------------------------------------------------------------
# A pass encodes both of its attributes or neither
# ----------------------------------------------------------------------

NAME_PAIR = SchemaPair(RelationSchema("L", ["name"]), RelationSchema("R", ["fullname"]))

#: ``blocking.encode`` naming either side of the pair, or both.
ENCODE_EITHER = pytest.mark.parametrize(
    "encode", (["name"], ["fullname"], ["name", "fullname"]), ids=("left", "right", "both")
)
BOTH_FAMILIES = pytest.mark.parametrize("family", ("hash", "sorted-neighborhood"))


def _clifford(family, encode):
    left = Relation(NAME_PAIR.left, [{"name": "Clifford"}])
    right = Relation(NAME_PAIR.right, [{"fullname": "Clifford"}, {"fullname": "Clivord"}])
    return build_blocking([], 1, encode, family, 3, [("name", "fullname")]), left, right


@ENCODE_EITHER
@BOTH_FAMILIES
def test_a_pair_named_on_one_side_is_encoded_on_both_in_batch(family, encode):
    blocking, left, right = _clifford(family, encode)
    assert list(blocking.candidates(left, right)) == [(0, 0), (0, 1)]


@ENCODE_EITHER
@BOTH_FAMILIES
def test_a_pair_named_on_one_side_is_encoded_on_both_when_probed(family, encode):
    blocking, left, right = _clifford(family, encode)
    for row in right:
        _add(blocking, RIGHT, row)
    _add(blocking, LEFT, left[0])
    assert _probe(blocking, LEFT, left[0]) == [0, 1]
    assert _probe(blocking, RIGHT, right[1]) == [0]
