"""Tests for the inference lemmas: every derived MD must be deducible.

Lemmas 3.1–3.3 describe MD rewritings whose outputs are logical
consequences of their inputs; we verify each against MDClosure.
"""

import pytest

from inference import (
    augment_both,
    augment_lhs,
    reflexive_key_md,
    transitivity,
    weaken_similarity_to_equality,
)

from repro.core.closure import deduces
from repro.core.md import MatchingDependency


class TestLemma31Augmentation:
    def test_augment_lhs_with_similarity(self, pair, sigma):
        phi2 = sigma[1]
        augmented = augment_lhs(phi2, "FN", "FN", "dl(0.8)")
        assert len(augmented.lhs) == 2
        assert deduces(pair, [phi2], augmented)

    def test_augment_both_with_equality(self, pair, sigma):
        phi2 = sigma[1]  # tel = phn → addr ⇌ post
        augmented = augment_both(phi2, "gender", "gender")
        assert ("gender", "gender") in augmented.rhs_attribute_pairs()
        assert deduces(pair, [phi2], augmented)

    def test_augment_both_idempotent_on_existing_rhs(self, pair, sigma):
        phi2 = sigma[1]
        augmented = augment_both(phi2, "addr", "post")
        # addr/post already in RHS: only the LHS gains the test.
        assert len(augmented.rhs) == len(phi2.rhs)
        assert deduces(pair, [phi2], augmented)


class TestLemma32Weakening:
    def test_similarity_to_equality(self, pair, sigma):
        phi1 = sigma[0]  # has FN ≈dl FN at position 2
        strengthened = weaken_similarity_to_equality(phi1, 2)
        assert strengthened.lhs[2].operator.is_equality
        assert deduces(pair, [phi1], strengthened)

    def test_position_validation(self, sigma):
        with pytest.raises(IndexError):
            weaken_similarity_to_equality(sigma[0], 99)


class TestLemma33Transitivity:
    def test_compose_phi2_into_phi1(self, pair, sigma):
        phi1, phi2, phi3 = sigma
        # ϕ2 identifies (addr, post); a rule whose LHS needs addr = post
        # composes with it.
        followup = MatchingDependency(
            pair, [("addr", "post", "=")], [("gender", "gender")]
        )
        (composed,) = transitivity(phi2, followup)
        assert composed.lhs == phi2.lhs
        assert composed.rhs_attribute_pairs() == (("gender", "gender"),)
        assert deduces(pair, [phi2, followup], composed)

    def test_compose_requires_w_coverage(self, pair, sigma):
        phi2 = sigma[1]
        unrelated = MatchingDependency(
            pair, [("email", "email", "=")], [("FN", "FN")]
        )
        with pytest.raises(ValueError, match="not identified"):
            transitivity(phi2, unrelated)

    def test_compose_rejects_foreign_pairs(self, sigma, self_pair):
        foreign = MatchingDependency(self_pair, [("A", "A", "=")], [("B", "B")])
        with pytest.raises(ValueError, match="different schema pairs"):
            transitivity(sigma[1], foreign)

    def test_example_35_composition_chain(self, pair, sigma):
        """Reproduce the derivation (a)-(c) of Example 3.5 via lemmas."""
        phi1, phi2, phi3 = sigma
        # (a) tel = phn ∧ email = email → addr, FN, LN identified:
        step_a = MatchingDependency(
            pair,
            [("tel", "phn", "="), ("email", "email", "=")],
            [("addr", "post"), ("FN", "FN"), ("LN", "LN")],
        )
        assert deduces(pair, [phi2, phi3], step_a)
        # (b) LN, addr, FN all-equal → identify (Yc, Yb):
        step_b = MatchingDependency(
            pair,
            [("LN", "LN", "="), ("addr", "post", "="), ("FN", "FN", "=")],
            list(phi1.rhs_attribute_pairs()),
        )
        assert deduces(pair, [phi1], step_b)
        # (c) the composition — rck4:
        rck4 = MatchingDependency(
            pair,
            [("tel", "phn", "="), ("email", "email", "=")],
            list(phi1.rhs_attribute_pairs()),
        )
        assert deduces(pair, sigma, rck4)


class TestReflexiveKey:
    def test_always_deducible_from_empty_sigma(self, pair, sigma):
        for dependency in sigma:
            reflexive = reflexive_key_md(dependency)
            assert deduces(pair, [], reflexive)


class TestLemma34Interactions:
    """The matching operator interacts with = and ≈ (Lemma 3.4)."""

    def test_shared_rhs_attribute_forces_intra_equality(self, self_pair):
        # ϕ: L → R1[A1, A2] ⇌ R2[B, B]-style sharing through one B.
        from repro.core.closure import ClosureEngine
        from repro.core.similarity import EQUALITY

        phi = MatchingDependency(
            self_pair,
            [("C", "C", "=")],
            [("A", "B"), ("B", "B")],  # both A and B (left) identify with B (right)
        )
        engine = ClosureEngine(self_pair, [phi])
        matrix, _ = engine.closure(phi.lhs)
        # t[A1] = t'[B] and t[A2] = t'[B] force t[A1] = t[A2]: here the
        # left-side A and left-side B must be equal (intra-relation fact).
        left_a = self_pair.left_attr("A")
        left_b = self_pair.left_attr("B")
        assert matrix.get(left_a, left_b, EQUALITY)

    def test_similarity_transport_to_intra_relation(self, self_pair):
        # ϕ = (L ∧ R1[A] ≈ R2[B]) → R1[C] ⇌ R2[B]: then R1[C] ≈ R1[A].
        from repro.core.closure import ClosureEngine
        from repro.core.similarity import SimilarityOperator

        phi = MatchingDependency(
            self_pair,
            [("A", "B", "dl(0.8)")],
            [("C", "B")],
        )
        engine = ClosureEngine(self_pair, [phi])
        matrix, _ = engine.closure(phi.lhs)
        left_a = self_pair.left_attr("A")
        left_c = self_pair.left_attr("C")
        assert matrix.holds(left_a, left_c, SimilarityOperator("dl(0.8)"))
