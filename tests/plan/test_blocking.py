"""Unit tests for the kernel's blocking backends."""

import pytest

from repro.core.findrcks import find_rcks
from repro.core.schema import LEFT, RIGHT
from repro.plan.blocking import (
    HashBlockingBackend,
    SortedNeighborhoodBackend,
    hash_candidates,
    leading_attribute_pairs,
    rck_sort_keys,
    window_candidates,
)
from repro.plan.sn_index import WindowedSNIndex


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


class TestSortedNeighborhoodBackend:
    def test_requires_keys(self):
        with pytest.raises(ValueError, match="at least one sort key"):
            SortedNeighborhoodBackend([])

    def test_window_below_two_yields_no_candidates(self, rcks, small_dataset):
        """w < 2 means no two elements ever share a window."""
        backend = SortedNeighborhoodBackend.from_rcks(rcks, window=1)
        assert backend.candidates(
            small_dataset.credit, small_dataset.billing
        ) == []

    def test_candidates_match_window_pairs(self, rcks, small_dataset):
        backend = SortedNeighborhoodBackend.from_rcks(rcks, window=10)
        left_key, right_key = rck_sort_keys(rcks)
        expected = window_candidates(
            small_dataset.credit, small_dataset.billing,
            left_key, right_key, 10,
        )
        assert backend.candidates(
            small_dataset.credit, small_dataset.billing
        ) == expected

    def test_describe_reports_window(self, rcks):
        backend = SortedNeighborhoodBackend.from_rcks(rcks, window=4)
        assert "window=4" in backend.describe()


@pytest.mark.parametrize("build", (
    HashBlockingBackend.per_rck,
    lambda rcks: SortedNeighborhoodBackend.from_rcks(rcks, window=10),
    lambda rcks: WindowedSNIndex(leading_attribute_pairs(rcks), window=10),
), ids=("hash", "sorted-neighborhood", "windowed-sn"))
def test_candidates_come_back_once_each_ascending(build, rcks, small_dataset):
    """The contract of ``BlockingBackend.candidates``, and the precondition
    of the chase's hash joins: an unordered list silently scans."""
    candidates = build(rcks).candidates(small_dataset.credit, small_dataset.billing)
    assert len(candidates) > 100
    assert candidates == sorted(set(candidates))
