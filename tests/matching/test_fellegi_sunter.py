"""Tests for the Fellegi–Sunter matcher on generated data."""

import pytest

from repro.matching.comparison import ComparisonSpec, equality_spec
from repro.matching.evaluate import evaluate_matches
from repro.matching.fellegi_sunter import FellegiSunter
from repro.plan.blocking import attribute_key, window_candidates


@pytest.fixture(scope="module")
def fitted(small_dataset_module):
    dataset = small_dataset_module
    spec = ComparisonSpec(
        (
            ("email", "email", "="),
            ("tel", "phn", "="),
            ("FN", "FN", "dl(0.8)"),
            ("LN", "LN", "dl(0.8)"),
            ("street", "street", "="),
            ("zip", "zip", "="),
        )
    )
    left_key = attribute_key(["zip", "LN"])
    right_key = attribute_key(["zip", "LN"])
    candidates = window_candidates(
        dataset.credit, dataset.billing, left_key, right_key, 10
    )
    matcher = FellegiSunter(spec)
    matcher.fit(dataset.credit, dataset.billing, candidates, seed=0)
    return dataset, matcher, candidates


@pytest.fixture(scope="module")
def small_dataset_module():
    from repro.datagen.generator import generate_dataset

    return generate_dataset(300, seed=42)


class TestFit:
    def test_fit_returns_estimate(self, fitted):
        _, matcher, _ = fitted
        assert matcher.estimate is not None
        assert len(matcher.estimate.m) == 6

    def test_fit_requires_candidates(self, small_dataset_module):
        matcher = FellegiSunter(equality_spec([("FN", "FN")]))
        with pytest.raises(ValueError):
            matcher.fit(
                small_dataset_module.credit, small_dataset_module.billing, []
            )

    def test_unfitted_classify_raises(self, small_dataset_module):
        matcher = FellegiSunter(equality_spec([("FN", "FN")]))
        with pytest.raises(RuntimeError, match="not fitted"):
            matcher.classify(
                small_dataset_module.credit,
                small_dataset_module.billing,
                [(0, 0)],
            )

    def test_sampling_bounded(self, fitted):
        dataset, _, candidates = fitted
        matcher = FellegiSunter(equality_spec([("FN", "FN")]))
        matcher.fit(dataset.credit, dataset.billing, candidates, sample_size=50)
        assert matcher.estimate is not None


class TestClassification:
    def test_quality_on_candidates(self, fitted):
        dataset, matcher, candidates = fitted
        matches = matcher.classify(dataset.credit, dataset.billing, candidates)
        quality = evaluate_matches(matches, dataset.true_matches)
        # The ad-hoc spec is decent but not tuned (household co-members
        # collide on zip/LN/street); quality must still be far above
        # chance on the candidate subset.
        assert quality.precision > 0.6
        assert quality.recall > 0.7
        assert quality.f1 > 0.7

    def test_explicit_threshold_override(self, fitted):
        dataset, matcher, candidates = fitted
        strict = FellegiSunter(
            matcher.spec, estimate=matcher.estimate, threshold=1e9
        )
        assert strict.classify(dataset.credit, dataset.billing, candidates) == []

    def test_score_monotone_in_agreements(self, fitted):
        dataset, matcher, _ = fitted
        estimate = matcher.estimate
        width = len(matcher.spec)
        assert estimate.score([True] * width) > estimate.score(
            [False] * width
        )

    def test_feature_weights_table(self, fitted):
        _, matcher, _ = fitted
        rows = matcher.feature_weights()
        assert len(rows) == len(matcher.spec)
        name, agree, disagree = rows[0]
        assert "email" in name
        assert agree > disagree

    def test_decision_threshold_from_prior(self, fitted):
        _, matcher, _ = fitted
        # threshold = log2((1-p)/p); with p < 0.5 it must be positive.
        if matcher.estimate.p < 0.5:
            assert matcher.decision_threshold() > 0
