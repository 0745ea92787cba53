"""Tests for negative matching rules (the Section 8 extension)."""

import pytest

from repro.experiments.extensions.negation import GuardedRuleSet, NegativeRule, find_conflicts
from repro.core.rck import RelativeKey
from repro.plan import compile_plan


@pytest.fixture
def no_match_rule(pair):
    """Same full name alone must not identify the address (namesakes)."""
    return NegativeRule.build(
        pair,
        [("FN", "FN", "="), ("LN", "LN", "=")],
        [("addr", "post")],
        name="namesakes-not-same",
    )


class TestConstruction:
    def test_validation_empty_lhs(self, pair):
        with pytest.raises(ValueError, match="non-empty LHS"):
            NegativeRule.build(pair, [], [("FN", "FN")])

    def test_validation_empty_forbidden(self, pair):
        with pytest.raises(ValueError, match="forbid at least one"):
            NegativeRule.build(pair, [("FN", "FN", "=")], [])

    def test_validation_foreign_attributes(self, pair):
        with pytest.raises(ValueError):
            NegativeRule.build(pair, [("nope", "FN", "=")], [("FN", "FN")])

    def test_str_uses_negated_operator(self, no_match_rule):
        assert "<!>" in str(no_match_rule)


class TestFires:
    def test_fires_on_matching_premise(self, fig1, no_match_rule):
        _, credit, billing = fig1
        # t1 "Mark Clifford" vs t3 "Marx Clifford": FN differs exactly.
        assert not no_match_rule.fires(credit[0], billing[0])

    def test_fires_when_premise_holds(self, pair, fig1):
        _, credit, billing = fig1
        rule = NegativeRule.build(
            pair,
            [("LN", "LN", "=")],
            [("FN", "FN")],
            name="same-surname",
        )
        assert rule.fires(credit[0], billing[0])  # Clifford = Clifford

    def test_negated_atoms(self, pair, fig1):
        _, credit, billing = fig1
        # Same surname but NOT similar first names → veto.  t1/t3 have
        # similar FNs (Mark/Marx) so the rule must not fire; with a
        # stricter threshold it does.
        rule = NegativeRule.build(
            pair,
            [("LN", "LN", "="), ("FN", "FN", "dl(0.8)", True)],
            [("FN", "FN")],
            name="different-first-names",
        )
        assert not rule.fires(credit[0], billing[0])
        strict = NegativeRule.build(
            pair,
            [("LN", "LN", "="), ("FN", "FN", "=", True)],
            [("FN", "FN")],
            name="not-exactly-equal-first-names",
        )
        assert strict.fires(credit[0], billing[0])  # Mark != Marx exactly

    def test_negated_atoms_excluded_from_conflict_premise(self, pair, sigma):
        # Negated tests cannot be consumed by the closure: only positive
        # atoms form the premise of the static check.
        rule = NegativeRule.build(
            pair,
            [("tel", "phn", "="), ("gender", "gender", "=", True)],
            [("addr", "post")],
            name="negated-aware",
        )
        assert rule.positive_atoms()[0].attribute_pair == ("tel", "phn")
        conflicts = find_conflicts(pair, sigma, [rule])
        assert len(conflicts) == 1  # ϕ2 still forces addr ⇌ post

    def test_str_marks_negated_atoms(self, pair):
        rule = NegativeRule.build(
            pair,
            [("LN", "LN", "="), ("FN", "FN", "=", True)],
            [("FN", "FN")],
        )
        assert "not(credit[FN] = billing[FN])" in str(rule)


class TestConflicts:
    def test_consistent_set_has_no_conflicts(self, pair, sigma, no_match_rule):
        assert find_conflicts(pair, sigma, [no_match_rule]) == []

    def test_direct_conflict_detected(self, pair, sigma):
        # Σ's ϕ2 forces addr ⇌ post from tel = phn; a negative rule with
        # the same premise forbidding that identification conflicts.
        rule = NegativeRule.build(
            pair,
            [("tel", "phn", "=")],
            [("addr", "post")],
            name="phone-must-not-identify-address",
        )
        conflicts = find_conflicts(pair, sigma, [rule])
        assert len(conflicts) == 1
        assert conflicts[0].forced_pairs == (("addr", "post"),)
        assert "addr~post" in str(conflicts[0])

    def test_transitive_conflict_detected(self, pair, sigma):
        # email + phone force the *entire* target through deduction
        # (rck4); forbidding the gender identification still conflicts.
        rule = NegativeRule.build(
            pair,
            [("email", "email", "="), ("tel", "phn", "=")],
            [("gender", "gender")],
            name="email-phone-no-gender",
        )
        assert find_conflicts(pair, sigma, [rule])

    def test_foreign_rule_rejected(self, pair, sigma, self_pair):
        rule = NegativeRule.build(self_pair, [("A", "A", "=")], [("B", "B")])
        with pytest.raises(ValueError, match="different schema pair"):
            find_conflicts(pair, sigma, [rule])


class TestGuardedRuleSet:
    @pytest.fixture
    def guarded(self, target, no_match_rule):
        positive = compile_plan(
            rcks=[
                RelativeKey.from_triples(
                    target, [("FN", "FN", "="), ("LN", "LN", "=")]
                ),
                RelativeKey.from_triples(target, [("email", "email", "=")]),
            ]
        )
        return GuardedRuleSet(positive, [no_match_rule])

    def test_veto_blocks_positive_match(self, guarded, fig1):
        _, credit, billing = fig1
        # Construct a row pair agreeing on full name: t1 vs a namesake.
        # t1 and t3 disagree on FN so "same-name" does not fire; t1 vs t6
        # matches via email, and the veto does not fire (FN differs).
        assert guarded.matches(credit[0], billing[3])
        assert guarded.veto_reason(credit[0], billing[3]) == ""

    def test_negative_rule_vetoes(self, pair, target, fig1, no_match_rule):
        _, credit, billing = fig1
        positive = compile_plan(
            rcks=[RelativeKey.from_triples(target, [("LN", "LN", "=")])]
        )
        guarded = GuardedRuleSet(positive, [no_match_rule])
        # t1 vs t3: LN matches (positive fires) and the namesake veto
        # needs FN = FN which fails ("Mark" vs "Marx") → match survives.
        assert guarded.matches(credit[0], billing[0])
        # Same-name pair: build a veto that fires on LN alone.
        veto_ln = NegativeRule.build(
            pair, [("LN", "LN", "=")], [("FN", "FN")], name="ln-veto"
        )
        guarded2 = GuardedRuleSet(positive, [veto_ln])
        assert not guarded2.matches(credit[0], billing[0])
        assert guarded2.veto_reason(credit[0], billing[0]) == "ln-veto"

    def test_len(self, guarded):
        assert len(guarded) == 3

    def test_wraps_the_front_doors_key_evaluator(
        self, small_dataset, workspace_for
    ):
        """Over a workspace's plan, an unguarded set matches exactly what
        direct mode does, and a veto only takes pairs away."""
        dataset = small_dataset
        workspace = workspace_for(dataset, execution={"mode": "direct"})
        candidates = workspace.candidates(dataset.credit, dataset.billing)
        matched = set(
            workspace.match(dataset.credit, dataset.billing, candidates).matches
        )
        veto = NegativeRule.build(
            dataset.pair, [("gender", "gender", "=")], [("FN", "FN")]
        )

        def kept(guarded):
            return {
                (l, r)
                for l, r in candidates
                if guarded.matches(dataset.credit[l], dataset.billing[r])
            }

        assert matched
        assert kept(GuardedRuleSet(workspace.plan, [])) == matched
        assert kept(GuardedRuleSet(workspace.plan, [veto])) < matched
