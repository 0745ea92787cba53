"""Unit tests for plan compilation: dedup, bindings, cache, explain."""

import pytest

from reference import reference_chase

from repro.core.findrcks import find_rcks
from repro.core.semantics import InstancePair
from repro.datagen.generator import generate_dataset
from repro.datagen.schemas import extended_mds
from repro.experiments.exp_blocking import exp4_key_pairs
from repro.experiments.exp_fs import deduce_rcks
from repro.metrics.registry import MetricRegistry, default_registry
from repro.plan import (
    DEFAULT_ENCODED_ATTRIBUTES,
    HashBlockingBackend,
    build_blocking,
    compile_plan,
)


class TestCompilation:
    def test_requires_rules_or_keys(self):
        with pytest.raises(ValueError, match="at least one MD or RCK"):
            compile_plan()

    def test_dedups_predicates_across_rules_and_keys(self, sigma, target):
        rcks = find_rcks(sigma, target, m=5)
        plan = compile_plan(sigma, target, rcks=rcks)
        triples = [
            (predicate.left, predicate.right, predicate.operator)
            for predicate in plan.predicates
        ]
        assert len(set(triples)) == len(triples)
        # Atoms shared between MDs and keys collapsed into shared slots.
        assert plan.atom_count > len(plan.predicates)

    def test_metrics_resolved_at_compile_time(self, sigma, target):
        registry = default_registry()
        calls = []
        original = registry.resolve

        def counting_resolve(name):
            calls.append(name)
            return original(name)

        registry.resolve = counting_resolve
        plan = compile_plan(sigma, target, registry=registry)
        compile_calls = len(calls)
        assert compile_calls == len(plan.predicates)
        # Evaluation never goes back to the registry.
        row = {"FN": "Mark"}
        for predicate in plan.predicates:
            plan.evaluate(predicate, "Mark", "Marx")
        assert len(calls) == compile_calls

    def test_unknown_operator_fails_at_compile_time(self, sigma, target):
        with pytest.raises(KeyError, match="unknown metric"):
            compile_plan(sigma, target, registry=MetricRegistry())

    def test_rules_reference_predicate_slots(self, sigma, target):
        plan = compile_plan(sigma, target)
        for rule in plan.rules:
            for slot in rule.lhs:
                assert 0 <= slot < len(plan.predicates)
        assert len(plan.rules) == len(sigma)

    def test_target_inferred_from_rcks(self, sigma, target):
        rcks = find_rcks(sigma, target, m=3)
        plan = compile_plan(rcks=rcks)
        assert plan.target == target

    def test_chase_only_plan_has_no_blocking(self, sigma, fig1):
        plan = compile_plan(sigma)
        assert plan.blocking is None
        assert plan.keys == ()
        _, credit, billing = fig1
        with pytest.raises(ValueError, match="without a blocking backend"):
            plan.candidates(credit, billing)

    def test_no_backend_given_is_never_silently_windowed(
        self, sigma, target, fig1
    ):
        """Removal pin: a plan blocks with the backend it is handed; the
        pre-2.0 default (a global-window sort on the RCKs) is gone."""
        plan = compile_plan(sigma, target)
        assert plan.keys and plan.blocking is None
        _, credit, billing = fig1
        with pytest.raises(ValueError, match="without a blocking backend"):
            plan.candidates(credit, billing)
        with pytest.raises(TypeError):
            compile_plan(sigma, target, window=10)


class TestSimilarityCache:
    def test_similarity_predicate_memoized(self, sigma, target):
        plan = compile_plan(sigma, target)
        dl = next(p for p in plan.predicates if p.operator.startswith("dl"))
        assert plan.evaluate(dl, "Mark", "Marx") is True
        first = plan.stats.metric_evaluations
        assert plan.evaluate(dl, "Mark", "Marx") is True
        assert plan.stats.metric_evaluations == first
        assert plan.stats.cache_hits == 1

    def test_equality_not_cached_but_counted(self, sigma, target):
        plan = compile_plan(sigma, target)
        eq = next(p for p in plan.predicates if p.operator == "=")
        plan.evaluate(eq, "a", "a")
        plan.evaluate(eq, "a", "a")
        assert plan.stats.metric_evaluations == 2
        assert plan.stats.cache_hits == 0

    def test_a_whole_chase_decides_the_same_with_and_without_the_memo(
        self, workspace_for
    ):
        """Exp-4's RCK-blocking candidates at K=250, chased through the
        plan and through the reference chase, which resolves every
        operator on every comparison: the memo only saves evaluations."""
        dataset = generate_dataset(250, seed=3)
        rcks = deduce_rcks(dataset, extended_mds(dataset.pair))
        blocking = {
            "backend": "hash",
            "key_pairs": [list(pair) for pair in exp4_key_pairs(rcks)],
            "encode": ["FN", "LN"],
        }
        workspace = workspace_for(dataset, rcks=rcks, blocking=blocking)
        plan = workspace.plan
        candidates = workspace.candidates(dataset.credit, dataset.billing)
        matches = workspace.match(
            dataset.credit, dataset.billing,
            candidates=candidates, provenance=False,
        ).matches
        expected = reference_chase(
            plan.sigma,
            InstancePair(plan.pair, dataset.credit, dataset.billing),
            workspace.spec.resolver(),
            candidates,
            registry=plan.registry,
        ).matches(plan.target.attribute_pairs())
        assert candidates and matches
        assert sorted(matches) == sorted(expected)
        assert plan.stats.cache_hits > 0

    def test_cache_overflow_clears_and_stays_correct(
        self, sigma, target, monkeypatch
    ):
        monkeypatch.setattr("repro.plan.compile.DEFAULT_CACHE_LIMIT", 4)
        plan = compile_plan(sigma, target)
        dl = next(p for p in plan.predicates if p.operator.startswith("dl"))
        for index in range(20):
            assert plan.evaluate(dl, f"name{index}", f"name{index}x") is True
            assert len(plan._cache) <= 4
        assert plan.evaluate(dl, "Mark", "Kowalski") is False

    def test_stats_reset(self, sigma, target):
        plan = compile_plan(sigma, target)
        dl = next(p for p in plan.predicates if p.operator.startswith("dl"))
        plan.evaluate(dl, "Mark", "Marx")
        plan.stats.reset()
        # Every counter back to 0.
        assert plan.stats.as_dict() == {key: 0 for key in plan.stats.as_dict()}


class TestKernelChase:
    def test_plan_enforce_matches_reference_enforce(self, sigma, fig1, target):
        """A plan with keys chases as a throwaway chase-only plan of Σ
        does: same rounds, merges, stability."""
        pair, credit, billing = fig1
        candidates = [(l, r) for l in range(2) for r in range(4)]
        reference = compile_plan(sigma=sigma).enforce(
            InstancePair(pair, credit, billing), candidate_pairs=candidates,
        )
        plan = compile_plan(sigma, target)
        result = plan.enforce(
            InstancePair(pair, credit, billing), candidate_pairs=candidates
        )
        assert result.rounds == reference.rounds
        assert result.applications == reference.applications
        assert result.stable == reference.stable
        target_pairs = target.attribute_pairs()
        for left_tid, right_tid in candidates:
            assert result.identified(
                left_tid, right_tid, target_pairs
            ) == reference.identified(left_tid, right_tid, target_pairs)

    def test_chase_counters_accumulate(self, sigma, fig1, target):
        pair, credit, billing = fig1
        plan = compile_plan(sigma, target)
        candidates = [(0, 0), (0, 1)]
        plan.enforce(InstancePair(pair, credit, billing), candidate_pairs=candidates)
        stats = plan.stats
        assert stats.enforcements == 1
        assert stats.pairs_compared == 2
        assert stats.chase_rounds >= 2
        assert stats.rule_applications > 0
        assert stats.metric_evaluations > 0


class TestExplain:
    def test_explain_reports_dedup_and_bindings(self, sigma, target):
        plan = compile_plan(sigma, target)
        text = plan.explain()
        assert "unique predicate(s)" in text
        assert "exact equality" in text
        assert "DamerauLevenshtein >= 0.8" in text
        assert "blocking:" in text

    def test_to_dict_round_trips_to_json(self, sigma, target):
        import json

        plan = compile_plan(sigma, target)
        document = json.loads(json.dumps(plan.to_dict()))
        assert document["unique_predicates"] == len(plan.predicates)
        assert document["atoms_before_dedup"] == plan.atom_count
        assert len(document["rules"]) == len(sigma)
        assert document["rhs_groups"] == [
            {"rhs": [list(pair) for pair in pairs], "rules": list(rules)}
            for pairs, rules in plan.rhs_groups()
        ]

    def test_rhs_groups_of_the_extended_rules(self):
        """The seven card-holder MDs write 11 RHS pairs, each attribute in
        one pair: the pairs written by the same rules form six groups."""
        from repro.datagen.schemas import (
            extended_mds, extended_pair, extended_target,
        )

        pair = extended_pair()
        plan = compile_plan(extended_mds(pair), extended_target(pair))
        groups = {
            tuple(left for left, _ in pairs): rules
            for pairs, rules in plan.rhs_groups()
        }
        assert groups == {
            ("FN", "LN"): ("md0", "md2", "md4"),
            ("MI", "gender"): ("md0", "md4"),
            ("street", "zip"): ("md0", "md1", "md4"),
            ("city", "county", "state"): ("md0", "md1", "md3", "md4"),
            ("tel",): ("md0", "md4", "md5"),
            ("email",): ("md0", "md4", "md6"),
        }
        text = plan.explain()
        assert "rhs groups (one union per pair and group):" in text
        assert "  city<=>city, county<=>county, state<=>state: written by " \
            "md0, md1, md3, md4" in text

    def test_explain_with_hash_backend(self, sigma, target):
        rcks = find_rcks(sigma, target, m=3)
        plan = compile_plan(
            sigma, target, rcks=rcks,
            blocking=HashBlockingBackend.per_rck(rcks),
        )
        assert "hash(" in plan.explain()

    def test_explain_with_sn_backend(self, sigma, target):
        rcks = find_rcks(sigma, target, m=3)
        plan = compile_plan(
            sigma, target, rcks=rcks,
            blocking=build_blocking(
                rcks, 1, DEFAULT_ENCODED_ATTRIBUTES, "sorted-neighborhood", 7, None
            ),
        )
        assert "window=7" in plan.explain()
