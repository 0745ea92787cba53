"""Unit and property tests for findRCKs beyond the worked example."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.closure import ClosureEngine
from repro.core.findrcks import (
    all_rcks,
    find_rcks,
    is_complete,
    minimize,
    pairing,
    sort_mds,
)
from repro.core.quality import CostModel
from repro.core.rck import RelativeKey
from repro.datagen.mdgen import generate_workload


class TestPairing:
    def test_collects_target_and_md_pairs(self, sigma, target):
        pairs = pairing(sigma, target)
        assert ("email", "email") in pairs  # from ϕ3's LHS
        assert ("gender", "gender") in pairs  # from the target
        assert ("addr", "post") in pairs  # both

    def test_counts(self, sigma, target):
        # Yc/Yb has 5 pairs; the MDs add email only.
        assert len(pairing(sigma, target)) == 6


class TestSortMds:
    def test_ascending_by_lhs_cost(self, sigma):
        model = CostModel()
        model.increment([("LN", "LN")])  # make ϕ1's LHS the most expensive
        model.increment([("LN", "LN")])
        ordered = sort_mds(sigma, model)
        assert ordered[-1] == sigma[0]  # ϕ1 (3 LHS pairs, one inflated)

    def test_stability(self, sigma):
        model = CostModel()
        ordered = sort_mds(sigma, model)
        # ϕ2 (1 pair) before ϕ3 (1 pair)? Equal cost → original order among
        # equals; ϕ1 (3 pairs) last.
        assert ordered[-1] == sigma[0]


class TestMinimize:
    def test_produces_deducible_key(self, pair, sigma, target):
        engine = ClosureEngine(pair, sigma)
        seed = RelativeKey.identity_key(target)
        minimal = minimize(seed, engine, CostModel())
        assert engine.deduces(minimal.to_md())

    def test_result_is_locally_minimal(self, pair, sigma, target):
        engine = ClosureEngine(pair, sigma)
        minimal = minimize(RelativeKey.identity_key(target), engine, CostModel())
        for atom in minimal.atoms:
            if minimal.length > 1:
                assert not engine.deduces(minimal.without(atom).to_md())

    def test_never_removes_below_one(self, pair, target):
        engine = ClosureEngine(pair, [])
        single = RelativeKey.from_triples(target, [("FN", "FN", "=")])
        # With Σ = ∅ this key is not even deducible, but minimize must not
        # crash or empty it.
        assert minimize(single, engine, CostModel()).length == 1

    def test_cost_guides_removal_order(self, pair, sigma, target):
        # Make the email pair maximally expensive: keys built by minimize
        # should retain *cheap* pairs when alternatives exist.
        engine = ClosureEngine(pair, sigma)
        model = CostModel(lengths={("addr", "post"): 100.0})
        minimal = minimize(RelativeKey.identity_key(target), engine, model)
        assert ("addr", "post") not in minimal.attribute_pairs()


class TestFindRcksGeneral:
    def test_m_validation(self, sigma, target):
        with pytest.raises(ValueError):
            find_rcks(sigma, target, m=0)

    def test_m_equals_one(self, sigma, target):
        keys = find_rcks(sigma, target, m=1)
        assert len(keys) == 1

    def test_empty_sigma_yields_identity_minimized(self, pair, target):
        keys = find_rcks([], target, m=5)
        assert len(keys) == 1
        assert keys[0].length == len(target)

    def test_no_duplicate_keys(self, sigma, target):
        keys = find_rcks(sigma, target, m=10)
        triple_sets = [key.triple_set() for key in keys]
        assert len(triple_sets) == len(set(triple_sets))

    def test_no_key_covers_another(self, sigma, target):
        keys = find_rcks(sigma, target, m=10)
        for first in keys:
            for second in keys:
                if first is not second:
                    assert not first.covers(second)

    def test_diversity_counter_effect(self, sigma, target):
        # With the diversity term active, the first two keys should not be
        # built from identical attribute pairs.
        keys = find_rcks(sigma, target, m=3)
        assert set(keys[0].attribute_pairs()) != set(keys[1].attribute_pairs())


class TestCompleteness:
    def test_complete_set_detected(self, sigma, target):
        keys = find_rcks(sigma, target, m=100)
        assert is_complete(keys, sigma)

    def test_incomplete_prefix_detected(self, sigma, target):
        keys = find_rcks(sigma, target, m=100)
        assert not is_complete(keys[:1], sigma)

    def test_empty_set_incomplete(self, sigma):
        assert not is_complete([], sigma)

    def test_all_rcks_limit_guard(self, sigma, target):
        with pytest.raises(RuntimeError):
            all_rcks(sigma, target, limit=2)

    def test_all_rcks_accepts_exactly_limit_keys(self, sigma, target):
        """The paper's Σ has exactly 5 RCKs: ``limit=5`` is a complete answer."""
        assert all_rcks(sigma, target, limit=5) == all_rcks(sigma, target)
        assert len(all_rcks(sigma, target)) == 5

    def test_all_rcks_refuses_one_key_over_limit(self, sigma, target):
        with pytest.raises(RuntimeError, match="more than 4 RCKs"):
            all_rcks(sigma, target, limit=4)


class TestRandomWorkloads:
    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=15, deadline=None)
    def test_all_returned_keys_deduced_and_minimal(self, seed):
        workload = generate_workload(md_count=12, target_length=4, seed=seed)
        engine = ClosureEngine(workload.pair, list(workload.sigma))
        keys = find_rcks(list(workload.sigma), workload.target, m=8)
        assert keys, "at least the minimized identity key must be returned"
        for key in keys:
            assert engine.deduces(key.to_md())
            for atom in key.atoms:
                if key.length > 1:
                    assert not engine.deduces(key.without(atom).to_md())

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=10, deadline=None)
    def test_complete_when_under_m(self, seed):
        workload = generate_workload(md_count=6, target_length=3, seed=seed)
        keys = find_rcks(list(workload.sigma), workload.target, m=500)
        assert is_complete(keys, list(workload.sigma))
