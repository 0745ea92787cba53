"""Unit tests for the MDClosure deduction algorithm (Section 4)."""

import pytest

from closure_oracles import md_closure_paper_loop

from repro.core.closure import ClosureEngine, deduces
from repro.core.md import MatchingDependency
from repro.core.rck import RelativeKey
from repro.core.similarity import EQUALITY


class TestTransitivity:
    """Example 3.1 / Lemma 3.3: ψ1, ψ2 ⊨m ψ3 (though ψ1, ψ2 ⊭ ψ3)."""

    def test_basic_chain(self, self_pair):
        psi1 = MatchingDependency(self_pair, [("A", "A", "=")], [("B", "B")])
        psi2 = MatchingDependency(self_pair, [("B", "B", "=")], [("C", "C")])
        psi3 = MatchingDependency(self_pair, [("A", "A", "=")], [("C", "C")])
        assert deduces(self_pair, [psi1, psi2], psi3)

    def test_chain_with_similarity_lhs(self, self_pair):
        # Lemma 3.2(2): the second MD's similarity test is satisfied by
        # the equality the first MD establishes.
        psi1 = MatchingDependency(self_pair, [("A", "A", "=")], [("B", "B")])
        psi2 = MatchingDependency(
            self_pair, [("B", "B", "dl(0.8)")], [("C", "C")]
        )
        psi3 = MatchingDependency(self_pair, [("A", "A", "=")], [("C", "C")])
        assert deduces(self_pair, [psi1, psi2], psi3)

    def test_broken_chain_not_deduced(self, self_pair):
        # A similarity conclusion cannot chain: ψ1 identifies B (equality
        # on stable instances), but a ψ2 requiring a *different* operator
        # pair cannot fire without it.
        psi1 = MatchingDependency(
            self_pair, [("A", "A", "dl(0.8)")], [("B", "B")]
        )
        psi3 = MatchingDependency(self_pair, [("A", "A", "=")], [("C", "C")])
        assert not deduces(self_pair, [psi1], psi3)


class TestReflexivityAndAugmentation:
    def test_reflexive_key_always_deduced(self, pair, target):
        # (Y1 = Y2) → Y1 ⇌ Y2 holds with an empty Σ.
        identity = RelativeKey.identity_key(target).to_md()
        assert deduces(pair, [], identity)

    def test_lhs_similarity_alone_insufficient(self, pair, target):
        # FN ≈ FN does not identify FN: similarity is not equality.
        phi = MatchingDependency(pair, [("FN", "FN", "dl(0.8)")], [("FN", "FN")])
        assert not deduces(pair, [], phi)

    def test_lhs_equality_identifies_itself(self, pair):
        phi = MatchingDependency(pair, [("FN", "FN", "=")], [("FN", "FN")])
        assert deduces(pair, [], phi)

    def test_augmented_lhs_still_deduced(self, pair, sigma):
        # Lemma 3.1: adding conjuncts to a deducible MD keeps it deducible.
        phi2 = sigma[1]
        augmented = phi2.with_extra_lhs("gender", "gender", "=")
        assert deduces(pair, sigma, augmented)

    def test_operator_identity_matters(self, self_pair):
        # An MD firing on dl(0.8) is not triggered by a dl(0.9) test alone.
        rule = MatchingDependency(
            self_pair, [("A", "A", "dl(0.8)")], [("B", "B")]
        )
        phi = MatchingDependency(
            self_pair, [("A", "A", "dl(0.9)")], [("C", "C")]
        )
        assert not deduces(self_pair, [rule], phi)

    def test_equality_satisfies_any_operator_test(self, self_pair):
        rule = MatchingDependency(
            self_pair, [("A", "A", "dl(0.8)")], [("B", "B")]
        )
        phi = MatchingDependency(self_pair, [("A", "A", "=")], [("B", "B")])
        assert deduces(self_pair, [rule], phi)


class TestGeneralForm:
    def test_multi_pair_rhs(self, pair, sigma):
        # ϕ3 identifies FN and LN; asking for both at once must work.
        phi = MatchingDependency(
            pair,
            [("email", "email", "=")],
            [("FN", "FN"), ("LN", "LN")],
        )
        assert deduces(pair, sigma, phi)

    def test_partial_rhs_failure(self, pair, sigma):
        # email alone does not identify the address.
        phi = MatchingDependency(
            pair, [("email", "email", "=")], [("FN", "FN"), ("addr", "post")]
        )
        assert not deduces(pair, sigma, phi)

    def test_engine_rejects_foreign_phi(self, pair, sigma, self_pair):
        engine = ClosureEngine(pair, sigma)
        foreign = MatchingDependency(self_pair, [("A", "A", "=")], [("B", "B")])
        with pytest.raises(ValueError):
            engine.deduces(foreign)

    def test_engine_rejects_foreign_sigma(self, pair, self_pair):
        foreign = MatchingDependency(self_pair, [("A", "A", "=")], [("B", "B")])
        with pytest.raises(ValueError):
            ClosureEngine(pair, [foreign])

    def test_engine_normalizes(self, pair, sigma):
        engine = ClosureEngine(pair, sigma)
        assert all(md.is_normal_form for md in engine.normalized_mds)
        # ϕ1 has 5 RHS pairs, ϕ2 one, ϕ3 two → 8 normal-form MDs.
        assert len(engine.normalized_mds) == 8


class TestClosureContents:
    def test_closure_marks_rhs_with_equality(self, pair, sigma):
        engine = ClosureEngine(pair, sigma)
        phi2 = sigma[1]
        matrix, stats = engine.closure(phi2.lhs)
        assert matrix.get(
            pair.left_attr("addr"), pair.right_attr("post"), EQUALITY
        )
        assert stats.mds_fired >= 1

    def test_closure_keeps_similarity_entries(self, pair, sigma):
        engine = ClosureEngine(pair, sigma)
        phi1 = sigma[0]
        matrix, _ = engine.closure(phi1.lhs)
        fn_l, fn_r = pair.left_attr("FN"), pair.right_attr("FN")
        # The LHS asserts FN ≈dl FN; the firing of ϕ1 upgrades it to =.
        assert matrix.holds(fn_l, fn_r, EQUALITY)

    def test_stats_counters_consistent(self, pair, sigma):
        engine = ClosureEngine(pair, sigma)
        matrix, stats = engine.closure(sigma[0].lhs)
        assert stats.entries_set == matrix.entry_count
        assert stats.queue_pops == stats.entries_set


class TestPaperLoopAgreement:
    def test_same_verdicts_on_paper_sigma(self, pair, sigma, target):
        engine = ClosureEngine(pair, sigma)
        candidates = [
            RelativeKey.from_triples(target, triples).to_md()
            for triples in (
                [("email", "email", "="), ("tel", "phn", "=")],
                [("email", "email", "="), ("addr", "post", "=")],
                [("email", "email", "=")],
                [("tel", "phn", "=")],
                [("LN", "LN", "="), ("addr", "post", "="), ("FN", "FN", "dl(0.8)")],
            )
        ]
        for phi in candidates:
            loop_matrix = md_closure_paper_loop(pair, sigma, phi.lhs)
            loop_verdict = all(
                loop_matrix.get(
                    pair.left_attr(atom.left),
                    pair.right_attr(atom.right),
                    EQUALITY,
                )
                for atom in phi.rhs
            )
            assert engine.deduces(phi) == loop_verdict
