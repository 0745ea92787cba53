"""End-to-end integration tests crossing all subsystems.

The full workflow a downstream user runs: write MDs (text syntax), deduce
RCKs, generate candidates, match with three different matchers, and
evaluate against truth — plus the semantic round trip between deduction
(Σ ⊨m φ) and enforcement (every chase fixpoint satisfies φ).
"""

import pytest

from repro.core.closure import ClosureEngine
from repro.core.findrcks import find_rcks
from repro.core.parser import parse_mds
from repro.core.semantics import InstancePair, enforce, satisfies
from repro.datagen.generator import generate_dataset
from repro.datagen.mdgen import generate_workload
from repro.datagen.schemas import extended_mds
from repro.experiments.baselines.comparison import union_of_rcks
from repro.experiments.baselines.fellegi_sunter import FellegiSunter
from repro.experiments.baselines.windowing import rck_sort_keys, window_candidates
from repro.matching.evaluate import evaluate_matches, evaluate_reduction
from repro.experiments.exp_sn import hand_rule_keys, match_on_keys


class TestTextToKeysWorkflow:
    def test_parse_deduce_match(self, pair, target, fig1, workspace_for):
        """MDs written as text drive the whole Fig. 1 narrative."""
        text = """
        # Example 2.1
        credit[LN] = billing[LN] & credit[addr] = billing[post] & credit[FN] ~dl(0.8) billing[FN] -> credit[FN] <=> billing[FN] & credit[LN] <=> billing[LN] & credit[addr] <=> billing[post] & credit[tel] <=> billing[phn] & credit[gender] <=> billing[gender]
        credit[tel] = billing[phn] -> credit[addr] <=> billing[post]
        credit[email] = billing[email] -> credit[FN] <=> billing[FN] & credit[LN] <=> billing[LN]
        """
        sigma = parse_mds(text, pair)
        assert len(sigma) == 3
        keys = find_rcks(sigma, target, m=6)
        matcher = workspace_for(
            target, sigma, rcks=keys, execution={"mode": "direct"}
        )
        _, credit, billing = fig1
        result = matcher.match(
            credit,
            billing,
            candidates=[(l, r) for l in range(2) for r in range(4)],
        )
        assert set(result.matches) == {(0, 0), (0, 1), (0, 2), (0, 3)}


class TestDeductionEnforcementRoundTrip:
    """If Σ ⊨m φ, then every chase fixpoint of Σ satisfies φ."""

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_on_random_workloads(self, seed):
        workload = generate_workload(md_count=8, target_length=3, seed=seed)
        pair, sigma = workload.pair, list(workload.sigma)
        engine = ClosureEngine(pair, sigma)

        # Candidate φs: each MD with its RHS replaced by a random target
        # pair, some deducible and some not.
        from repro.core.md import MatchingDependency

        candidates = []
        for dependency in sigma[:4]:
            for position in range(len(workload.target)):
                left, right = workload.target[position]
                candidates.append(
                    MatchingDependency(
                        pair, dependency.lhs, [(left, right)]
                    )
                )

        # Build a tiny instance where some tuple pairs satisfy LHS values.
        from repro.relations.relation import Relation

        left_rel = Relation(pair.left)
        right_rel = Relation(pair.right)
        for index in range(3):
            left_rel.insert(
                {name: f"v{index}" for name in pair.left.attribute_names}
            )
            right_rel.insert(
                {name: f"v{index}" for name in pair.right.attribute_names}
            )
        instance = InstancePair(pair, left_rel, right_rel)
        result = enforce(instance, sigma)
        assert result.stable

        for phi in candidates:
            if engine.deduces(phi):
                # Deduced MDs hold on (D', D') for every stable D'.
                assert satisfies(result.instance, result.instance, phi), (
                    f"deduced {phi} violated on a stable instance"
                )


class TestFullMatchingPipeline:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_dataset(400, seed=17)

    @pytest.fixture(scope="class")
    def rcks(self, dataset):
        return find_rcks(extended_mds(dataset.pair), dataset.target, m=5)

    @pytest.fixture(scope="class")
    def candidates(self, dataset, rcks):
        left_key, right_key = rck_sort_keys(rcks)
        return window_candidates(
            dataset.credit, dataset.billing, left_key, right_key, 10
        )

    def test_candidates_reduce_space(self, dataset, candidates):
        reduction = evaluate_reduction(
            candidates, dataset.true_matches, dataset.total_pairs
        )
        assert reduction.reduction_ratio > 0.9
        assert reduction.pairs_completeness > 0.5

    def test_three_matchers_agree_on_quality_ordering(
        self, dataset, rcks, candidates
    ):
        # RCK rules
        rck_quality = evaluate_matches(
            match_on_keys(dataset, rcks, candidates), dataset.true_matches
        )

        # 25 hand rules
        base_quality = evaluate_matches(
            match_on_keys(dataset, hand_rule_keys(dataset.target), candidates),
            dataset.true_matches,
        )

        # FS with the RCK-union vector
        fs = FellegiSunter(union_of_rcks(rcks))
        fs.fit(dataset.credit, dataset.billing, candidates, seed=0)
        fs_matches = fs.classify(dataset.credit, dataset.billing, candidates)
        fs_quality = evaluate_matches(fs_matches, dataset.true_matches)

        # Headline orderings of Section 6.
        assert rck_quality.precision >= base_quality.precision
        assert fs_quality.f1 > 0.7
        assert rck_quality.f1 > 0.8

    def test_deduced_keys_are_sound_on_clean_data(self, rcks, workspace_for):
        """On noise-free data RCK matching has perfect precision."""
        from repro.datagen.noise import NoiseModel

        clean = generate_dataset(
            300,
            seed=23,
            noise=NoiseModel(tuple_rate=0.0),
            household_fraction=0.2,
            namesake_fraction=0.1,
        )
        matcher = workspace_for(
            clean, rcks=rcks, execution={"mode": "direct"}
        )
        candidates = [
            (credit_tid, billing_tid)
            for credit_tid in clean.credit.tids()[:40]
            for billing_tid in clean.billing.tids()
        ]
        result = matcher.match(clean.credit, clean.billing, candidates)
        quality = evaluate_matches(result.matches, clean.true_matches)
        assert quality.precision == 1.0


class TestDeductionMonotonicity:
    def test_more_mds_never_lose_deductions(self, pair, sigma, target):
        """Σ ⊆ Σ' implies deductions of Σ are deductions of Σ'."""
        keys = find_rcks(sigma, target, m=6)
        richer = sigma + [
            parse_mds(
                "credit[SSN] = billing[c#] -> credit[gender] <=> billing[gender]",
                pair,
            )[0]
        ]
        engine = ClosureEngine(pair, richer)
        for key in keys:
            assert engine.deduces(key.to_md())
