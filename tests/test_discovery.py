"""Tests for MD discovery from sample data."""

import pytest

from repro.core.findrcks import find_rcks
from repro.datagen.generator import generate_dataset
from repro.experiments.baselines.windowing import window_candidates
from repro.experiments.extensions.miner import (
    DiscoveryConfig,
    discover_mds,
    random_labelled_pairs,
    sample_labelled_pairs,
)
from repro.matching.evaluate import evaluate_matches
from repro.plan.blocking import attribute_key


@pytest.fixture(scope="module")
def training():
    """A labelled sample from a generated dataset."""
    dataset = generate_dataset(600, seed=31)
    left_key = attribute_key(["zip", "LN"])
    right_key = attribute_key(["zip", "LN"])
    candidates = window_candidates(
        dataset.credit, dataset.billing, left_key, right_key, 10
    )
    sample = sample_labelled_pairs(
        candidates, dataset.true_matches, limit=4000, seed=0
    )
    # Unbiased negatives so mined rules must discriminate globally.
    sample += random_labelled_pairs(
        dataset.credit, dataset.billing, dataset.true_matches, 4000, seed=1
    )
    return dataset, sample


class TestValidation:
    def test_config_bounds(self):
        with pytest.raises(ValueError):
            DiscoveryConfig(min_confidence=0.0)
        with pytest.raises(ValueError):
            DiscoveryConfig(min_support=0)
        with pytest.raises(ValueError):
            DiscoveryConfig(max_lhs=0)
        with pytest.raises(ValueError):
            DiscoveryConfig(operators=())

    def test_empty_sample_rejected(self, training):
        dataset, _ = training
        with pytest.raises(ValueError, match="empty"):
            discover_mds(
                dataset.credit, dataset.billing, [], dataset.target
            )

    def test_no_positives_rejected(self, training):
        dataset, sample = training
        negatives = [(l, r, False) for l, r, _ in sample[:50]]
        with pytest.raises(ValueError, match="no positive"):
            discover_mds(
                dataset.credit, dataset.billing, negatives, dataset.target
            )


class TestMining:
    @pytest.fixture(scope="class")
    def mined(self, training):
        dataset, sample = training
        return discover_mds(
            dataset.credit,
            dataset.billing,
            sample,
            dataset.target,
            DiscoveryConfig(min_confidence=0.95, min_support=10, max_lhs=2),
        )

    def test_finds_rules(self, mined):
        assert len(mined) >= 3

    def test_confidence_respected(self, mined):
        assert all(rule.confidence >= 0.95 for rule in mined)

    def test_support_respected(self, mined):
        assert all(rule.support >= 10 for rule in mined)

    def test_minimality_no_lhs_contains_another(self, mined):
        lhs_sets = [frozenset(rule.dependency.lhs) for rule in mined]
        for i, first in enumerate(lhs_sets):
            for j, second in enumerate(lhs_sets):
                if i != j:
                    assert not first < second

    def test_sorted_by_confidence(self, mined):
        confidences = [rule.confidence for rule in mined]
        assert confidences == sorted(confidences, reverse=True)

    def test_discovers_phone_or_email_keys(self, mined):
        """The generator's semantics: tel/phn and email are near-keys."""
        mined_lhs = {
            frozenset(atom.attribute_pair for atom in rule.dependency.lhs)
            for rule in mined
        }
        expected_any = [
            frozenset({("tel", "phn")}),
            frozenset({("email", "email")}),
            frozenset({("tel", "phn"), ("email", "email")}),
        ]
        assert any(candidate in mined_lhs for candidate in expected_any)

    def test_str_includes_stats(self, mined):
        assert "confidence=" in str(mined[0])


class TestMinedToMatching:
    """The Section 7 pipeline: discover MDs → deduce RCKs → match."""

    def test_mined_mds_drive_matching(self, training, workspace_for):
        dataset, sample = training
        mined = discover_mds(
            dataset.credit,
            dataset.billing,
            sample,
            dataset.target,
            DiscoveryConfig(min_confidence=0.97, min_support=10, max_lhs=2),
        )
        assert mined
        sigma = [rule.dependency for rule in mined]
        rcks = find_rcks(sigma, dataset.target, m=5)
        # Evaluate on a *fresh* dataset (same distribution, new seed).
        fresh = generate_dataset(600, seed=77)
        matcher = workspace_for(
            fresh,
            sigma,
            rcks=rcks,
            blocking={"backend": "sorted-neighborhood", "window": 10},
            execution={"mode": "direct"},
        )
        result = matcher.match(fresh.credit, fresh.billing)
        quality = evaluate_matches(result.matches, fresh.true_matches)
        assert quality.precision > 0.9
        assert quality.recall > 0.5


class TestSampling:
    def test_limit_respected(self):
        pairs = [(i, i) for i in range(100)]
        sample = sample_labelled_pairs(pairs, frozenset(), limit=10, seed=0)
        assert len(sample) == 10

    def test_labels_against_truth(self):
        truth = frozenset({(0, 0)})
        sample = sample_labelled_pairs([(0, 0), (1, 1)], truth, seed=0)
        labels = {(l, r): m for l, r, m in sample}
        assert labels[(0, 0)] is True
        assert labels[(1, 1)] is False
