"""Unit tests for the kernel's blocking backends."""

import pytest

from repro.core.findrcks import find_rcks
from repro.core.schema import LEFT, RIGHT
from repro.plan.blocking import (
    DEFAULT_ENCODED_ATTRIBUTES,
    HashBlockingBackend,
    build_blocking,
    hash_candidates,
    rck_sort_keys,
    window_candidates,
)


def _add(backend, side, row):
    """Index ``row`` the way a store does: under the keys derived once."""
    backend.add(side, row, backend.keys_for(side, row))


def _probe(backend, side, row):
    return backend.probe(side, row, backend.keys_for(side, row))


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
            for pair in hash_candidates(
                small_dataset.credit, small_dataset.billing,
                index.left_key, index.right_key,
            )
        }
        assert backend.candidates(
            small_dataset.credit, small_dataset.billing
        ) == sorted(expected)

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
    """The contract of ``BlockingBackend.candidates``, and the precondition
    of the chase's hash joins: an unordered list silently scans."""
    candidates = candidates_of(
        rcks, small_dataset.credit, small_dataset.billing
    )
    assert len(candidates) > 100
    assert candidates == sorted(set(candidates))
