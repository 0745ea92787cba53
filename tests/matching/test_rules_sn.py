"""Tests for the equational-theory rules and Sorted Neighborhood."""

import pytest

from repro.core.rck import RelativeKey
from repro.matching.comparison import ComparisonSpec
from repro.matching.evaluate import evaluate_matches
from repro.matching.rules import (
    MatchRule,
    RuleSet,
    default_person_rules,
    rules_from_rcks,
)
from repro.matching.sorted_neighborhood import SortedNeighborhood
from repro.plan.blocking import attribute_key


class TestRuleSet:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RuleSet([])

    def test_duplicate_names_rejected(self):
        rule = MatchRule("r", ComparisonSpec((("FN", "FN", "="),)))
        with pytest.raises(ValueError, match="duplicate"):
            RuleSet([rule, rule])

    def test_disjunctive_semantics(self, fig1):
        _, credit, billing = fig1
        rules = RuleSet(
            [
                MatchRule("email", ComparisonSpec((("email", "email", "="),))),
                MatchRule("phone", ComparisonSpec((("tel", "phn", "="),))),
            ]
        )
        # t1 vs t4: email disagrees ("mc@gm.com" vs "mc"), phone agrees.
        assert rules.matches(credit[0], billing[1])
        assert rules.first_matching_rule(credit[0], billing[1]) == "phone"

    def test_no_rule_fires(self, fig1):
        _, credit, billing = fig1
        rules = RuleSet(
            [MatchRule("ssn-ish", ComparisonSpec((("SSN", "c#", "="),)))]
        )
        assert not rules.matches(credit[0], billing[0])
        assert rules.first_matching_rule(credit[0], billing[0]) == ""


class TestDefaultRules:
    def test_exactly_25_rules(self):
        assert len(default_person_rules()) == 25

    def test_names_unique(self):
        rules = default_person_rules()
        names = [rule.name for rule in rules]
        assert len(names) == len(set(names))

    def test_rules_reference_extended_schema_attributes(self, ext_pair):
        rules = default_person_rules()
        for rule in rules:
            for left_attr, right_attr, _ in rule.spec.features:
                assert left_attr in ext_pair.left
                assert right_attr in ext_pair.right


class TestRulesFromRcks:
    def test_one_rule_per_key(self, target):
        keys = [
            RelativeKey.from_triples(target, [("email", "email", "=")]),
            RelativeKey.from_triples(target, [("tel", "phn", "=")]),
        ]
        rules = rules_from_rcks(keys)
        assert len(rules) == 2

    def test_requires_keys(self):
        with pytest.raises(ValueError):
            rules_from_rcks([])

    def test_rck_rule_is_conjunctive(self, fig1, target):
        _, credit, billing = fig1
        key = RelativeKey.from_triples(
            target, [("email", "email", "="), ("tel", "phn", "=")]
        )
        rules = rules_from_rcks([key])
        # t1 vs t6: both email and phone agree → match (Example 1.1).
        assert rules.matches(credit[0], billing[3])
        # t1 vs t4: phone agrees but email does not → no match by this key.
        assert not rules.matches(credit[0], billing[1])


class TestSortedNeighborhood:
    def test_window_validation(self, target):
        rules = rules_from_rcks(
            [RelativeKey.from_triples(target, [("email", "email", "=")])]
        )
        with pytest.raises(ValueError):
            SortedNeighborhood(rules, window=1)

    def test_run_on_generated_data(self, small_dataset):
        dataset = small_dataset
        from repro.core.findrcks import find_rcks
        from repro.datagen.schemas import extended_mds

        rcks = find_rcks(
            extended_mds(dataset.pair), dataset.target, m=5
        )
        matcher = SortedNeighborhood(rules_from_rcks(rcks), window=10)
        left_key = attribute_key(["zip", "LN"])
        right_key = attribute_key(["zip", "LN"])
        result = matcher.run(
            dataset.credit, dataset.billing, left_key, right_key
        )
        assert result.candidates_examined > 0
        assert result.comparisons_made == result.candidates_examined
        quality = evaluate_matches(result.matches, dataset.true_matches)
        assert quality.precision > 0.9

    def test_multi_pass_supersets_single(self, small_dataset):
        dataset = small_dataset
        rules = default_person_rules()
        matcher = SortedNeighborhood(rules, window=5)
        zip_key = attribute_key(["zip"])
        email_key_left = attribute_key(["email"])
        email_key_right = attribute_key(["email"])
        single = matcher.run(dataset.credit, dataset.billing, zip_key, zip_key)
        multi = matcher.run(
            dataset.credit,
            dataset.billing,
            zip_key,
            zip_key,
            extra_keys=[(email_key_left, email_key_right)],
        )
        assert multi.candidates_examined >= single.candidates_examined
        assert set(single.matches) <= set(multi.matches)
