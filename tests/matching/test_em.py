"""Unit and property tests for the Fellegi–Sunter EM estimator."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.baselines.em import EMEstimate, fit_em


def _synthetic_vectors(
    pairs: int, p: float, m: float, u: float, features: int, seed: int
):
    """Draw comparison vectors from a known FS model."""
    rng = random.Random(seed)
    vectors = []
    for _ in range(pairs):
        is_match = rng.random() < p
        rate = m if is_match else u
        vectors.append(tuple(rng.random() < rate for _ in range(features)))
    return vectors


class TestFit:
    def test_recovers_separation(self):
        vectors = _synthetic_vectors(
            2000, p=0.2, m=0.9, u=0.05, features=4, seed=1
        )
        estimate = fit_em(vectors)
        for feature in range(4):
            assert estimate.m[feature] > 0.7
            assert estimate.u[feature] < 0.2
        assert 0.1 < estimate.p < 0.3

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_em([])

    def test_inconsistent_widths_rejected(self):
        with pytest.raises(ValueError, match="widths"):
            fit_em([(True,), (True, False)])

    def test_label_swap_guard(self):
        # Initialize in the "swapped" region: the guard must re-orient.
        vectors = _synthetic_vectors(
            1000, p=0.3, m=0.95, u=0.02, features=3, seed=2
        )
        estimate = fit_em(vectors, initial_m=0.1, initial_u=0.9, initial_p=0.5)
        assert sum(estimate.m) > sum(estimate.u)

    def test_converges(self):
        vectors = _synthetic_vectors(500, p=0.2, m=0.9, u=0.1, features=3, seed=3)
        estimate = fit_em(vectors)
        assert estimate.converged
        assert estimate.iterations < 200

    def test_probabilities_clamped(self):
        # Degenerate all-agree sample: probabilities must stay in (0, 1).
        estimate = fit_em([(True, True)] * 50)
        for value in (*estimate.m, *estimate.u, estimate.p):
            assert 0.0 < value < 1.0


class TestWeights:
    @pytest.fixture
    def estimate(self):
        return EMEstimate(
            m=(0.9,), u=(0.1,), p=0.2, iterations=1, converged=True,
            log_likelihood=0.0,
        )

    def test_agreement_weight_positive(self, estimate):
        assert estimate.agreement_weight(0) == pytest.approx(math.log2(9))

    def test_disagreement_weight_negative(self, estimate):
        assert estimate.disagreement_weight(0) == pytest.approx(
            math.log2(0.1 / 0.9)
        )

    def test_score_sums_weights(self, estimate):
        assert estimate.score([True]) == estimate.agreement_weight(0)
        assert estimate.score([False]) == estimate.disagreement_weight(0)


class TestProperties:
    @given(
        p=st.floats(min_value=0.05, max_value=0.5),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=10, deadline=None)
    def test_match_scores_exceed_unmatch_scores(self, p, seed):
        vectors = _synthetic_vectors(
            1000, p=p, m=0.9, u=0.05, features=4, seed=seed
        )
        estimate = fit_em(vectors)
        all_agree = estimate.score([True] * 4)
        all_disagree = estimate.score([False] * 4)
        assert all_agree > all_disagree
