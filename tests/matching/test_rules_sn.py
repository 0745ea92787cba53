"""Exp-3's hand rules, and rule matching through ``Workspace`` direct mode.

An equational-theory rule is a relative key: a pair matches when every
comparison of some key agrees.  Both Exp-3 configurations run as pinned
keys through the front door (``repro.experiments.exp_sn``).
"""

from repro.core.findrcks import find_rcks
from repro.core.rck import RelativeKey
from repro.datagen.schemas import extended_mds
from repro.experiments.baselines.windowing import window_candidates
from repro.experiments.exp_sn import HAND_RULES, hand_rule_keys, match_on_keys
from repro.matching.evaluate import evaluate_matches
from repro.plan import compile_plan
from repro.plan.blocking import attribute_key


def _direct(workspace_for, target, sigma, keys):
    return workspace_for(target, sigma, rcks=keys, execution={"mode": "direct"})


class TestHandRules:
    def test_exactly_25_rules(self):
        assert len(HAND_RULES) == 25
        names = [name for name, _ in HAND_RULES]
        assert len(names) == len(set(names))

    def test_each_rule_is_a_key_over_the_extended_schema(self, ext_target):
        keys = hand_rule_keys(ext_target)
        assert [len(key) for key in keys] == [
            len(triples) for _, triples in HAND_RULES
        ]
        # Every operator resolves: the rules compile as the plan's keys.
        assert len(compile_plan(rcks=keys).keys) == 25

    def test_one_key_per_rule_in_rule_order(self, small_dataset, workspace_for):
        keys = hand_rule_keys(small_dataset.target)
        plan = workspace_for(
            small_dataset, rcks=keys, execution={"mode": "direct"}
        ).plan
        assert [key.name for key in plan.keys] == [f"rck{i}" for i in range(25)]
        assert [key.source for key in plan.keys] == keys


class TestDirectMatching:
    def test_a_pair_matches_when_any_key_does(
        self, fig1, target, sigma, workspace_for
    ):
        _, credit, billing = fig1
        keys = [
            RelativeKey.from_triples(target, [("email", "email", "=")]),
            RelativeKey.from_triples(target, [("tel", "phn", "=")]),
        ]
        # t1 vs t4: email disagrees ("mc@gm.com" vs "mc"), phone agrees.
        report = _direct(workspace_for, target, sigma, keys).match(
            credit, billing, candidates=[(0, 1)]
        )
        assert report.matches == ((0, 1),)
        assert report.provenance[(0, 1)] == ("rck1",)

    def test_no_key_fires(self, fig1, target, sigma, workspace_for):
        _, credit, billing = fig1
        key = RelativeKey.from_triples(target, [("email", "email", "=")])
        # t2 shares no email with any billing tuple.
        report = _direct(workspace_for, target, sigma, [key]).match(
            credit, billing, candidates=[(1, r) for r in range(4)]
        )
        assert report.matches == ()

    def test_provenance_names_every_key_that_fires_in_order(
        self, fig1, target, sigma, workspace_for
    ):
        _, credit, billing = fig1
        keys = [
            RelativeKey.from_triples(target, [("c#", "c#", "=")]),
            RelativeKey.from_triples(target, [("email", "email", "=")]),
            RelativeKey.from_triples(target, [("tel", "phn", "=")]),
        ]
        # t1 vs t6: same card, email and phone — every key fires, and the
        # first name is the first key in rule order.
        report = _direct(workspace_for, target, sigma, keys).match(
            credit, billing, candidates=[(0, 3)]
        )
        assert report.provenance[(0, 3)] == ("rck0", "rck1", "rck2")

    def test_a_key_needs_all_its_comparisons(
        self, fig1, target, sigma, workspace_for
    ):
        _, credit, billing = fig1
        key = RelativeKey.from_triples(
            target, [("email", "email", "="), ("tel", "phn", "=")]
        )
        # t1 vs t6: both email and phone agree → match (Example 1.1);
        # t1 vs t4: phone agrees but email does not → no match.
        report = _direct(workspace_for, target, sigma, [key]).match(
            credit, billing, candidates=[(0, 1), (0, 3)]
        )
        assert report.matches == ((0, 3),)


class TestWindowedRuleMatching:
    def test_rck_rules_on_generated_data(self, small_dataset):
        dataset = small_dataset
        rcks = find_rcks(extended_mds(dataset.pair), dataset.target, m=5)
        key = attribute_key(["zip", "LN"])
        candidates = window_candidates(
            dataset.credit, dataset.billing, key, key, 10
        )
        assert candidates
        matches = match_on_keys(dataset, rcks, candidates)
        quality = evaluate_matches(matches, dataset.true_matches)
        assert quality.precision > 0.9

    def test_matches_are_the_candidates_some_key_matches_in_order(
        self, small_dataset
    ):
        dataset = small_dataset
        keys = hand_rule_keys(dataset.target)
        key = attribute_key(["LN"])
        candidates = window_candidates(
            dataset.credit, dataset.billing, key, key, 10
        )
        plan = compile_plan(rcks=keys)
        expected = [
            (l, r)
            for l, r in candidates
            if any(
                plan.key_matches(
                    key.predicates, dataset.credit[l], dataset.billing[r]
                )
                for key in plan.keys
            )
        ]
        assert expected
        assert match_on_keys(dataset, keys, candidates) == expected

    def test_multi_pass_supersets_single(self, small_dataset):
        dataset = small_dataset
        zip_key = attribute_key(["zip"])
        email_key = attribute_key(["email"])
        single = window_candidates(
            dataset.credit, dataset.billing, zip_key, zip_key, 5
        )
        multi = sorted(
            set(single)
            | set(
                window_candidates(
                    dataset.credit, dataset.billing, email_key, email_key, 5
                )
            )
        )
        assert len(multi) >= len(single)
        keys = hand_rule_keys(dataset.target)
        assert set(match_on_keys(dataset, keys, single)) <= set(
            match_on_keys(dataset, keys, multi)
        )
