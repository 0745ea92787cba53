"""Tests for the dynamic semantics, and the chase against them."""

import pytest

from repro.core.md import MatchingDependency
from repro.core.semantics import (
    InstancePair,
    is_stable,
    lhs_matches,
    prefer_informative,
    satisfies,
    satisfies_all,
)
from repro.core.schema import RelationSchema, SchemaPair
from repro.plan import compile_plan
from repro.relations.relation import Relation


def enforce(instance, sigma, **options):
    """Chase ``instance`` with Σ over a throwaway plan."""
    return compile_plan(sigma=sigma).enforce(instance, **options)


@pytest.fixture
def abc_pair():
    schema = RelationSchema("R", ["A", "B", "C"])
    return SchemaPair(schema, schema)


def _instance(pair, rows):
    """``rows`` matched against themselves: the relation and its copy."""
    relation = Relation(pair.left, rows)
    return InstancePair(pair, relation, relation.copy())


@pytest.fixture
def example23(abc_pair):
    """I0 of Fig. 3: s1 = (a, b1, c1), s2 = (a, b2, c2)."""
    return _instance(
        abc_pair,
        [
            {"A": "a", "B": "b1", "C": "c1"},
            {"A": "a", "B": "b2", "C": "c2"},
        ],
    )


@pytest.fixture
def psi(abc_pair):
    """ψ1, ψ2 of Example 2.3 and ψ3 of Example 3.1."""
    psi1 = MatchingDependency(abc_pair, [("A", "A", "=")], [("B", "B")])
    psi2 = MatchingDependency(abc_pair, [("B", "B", "=")], [("C", "C")])
    psi3 = MatchingDependency(abc_pair, [("A", "A", "=")], [("C", "C")])
    return psi1, psi2, psi3


class TestLhsMatching:
    def test_equality_match(self, example23, psi):
        psi1, _, _ = psi
        assert lhs_matches(psi1, example23, 0, 1)

    def test_no_match(self, example23, psi):
        _, psi2, _ = psi
        assert not lhs_matches(psi2, example23, 0, 1)

    def test_fig1_phi1_matches_t1_t3(self, fig1, sigma):
        pair, credit, billing = fig1
        instance = InstancePair(pair, credit, billing)
        phi1 = sigma[0]
        assert lhs_matches(phi1, instance, 0, 0)  # t1 with t3
        assert not lhs_matches(phi1, instance, 0, 1)  # t1 with t4


class TestSatisfaction:
    """The (D0, D1, D2) progression of Fig. 3 / Example 2.3."""

    def test_d0_d1_satisfies_psi1_not_psi3(self, abc_pair, example23, psi):
        psi1, psi2, psi3 = psi
        d1 = _instance(
            abc_pair,
            [
                {"A": "a", "B": "b", "C": "c1"},
                {"A": "a", "B": "b", "C": "c2"},
            ],
        )
        assert satisfies(example23, d1, psi1)
        # ψ2's LHS is not matched in D0 (b1 ≠ b2), so it holds vacuously.
        assert satisfies(example23, d1, psi2)
        # Example 3.1: (D0, D1) ⊭ ψ3 — A matched in D0 but C differs in D1.
        assert not satisfies(example23, d1, psi3)
        assert not satisfies_all(example23, d1, [psi1, psi3])

    def test_d2_is_stable(self, abc_pair, psi):
        psi1, psi2, psi3 = psi
        d2 = _instance(
            abc_pair,
            [
                {"A": "a", "B": "b", "C": "c"},
                {"A": "a", "B": "b", "C": "c"},
            ],
        )
        assert is_stable(d2, [psi1, psi2])
        assert is_stable(d2, [psi3])

    def test_d0_not_stable(self, example23, psi):
        psi1, _, _ = psi
        assert not is_stable(example23, [psi1])

    def test_extension_required(self, abc_pair, example23, psi):
        psi1, _, _ = psi
        other = _instance(abc_pair, [{"A": "a", "B": "b", "C": "c"}])
        assert not satisfies(example23, other, psi1)  # tuple ids missing


class TestEnforce:
    def test_chase_reaches_stable_instance(self, example23, psi):
        psi1, psi2, _ = psi
        result = enforce(example23, [psi1, psi2])
        assert result.stable
        assert is_stable(result.instance, [psi1, psi2])
        # Original D must be untouched.
        assert example23.left[0]["B"] == "b1"

    def test_chase_identifies_b_and_c(self, example23, psi):
        psi1, psi2, psi3 = psi
        result = enforce(example23, [psi1, psi2])
        s1 = result.instance.left[0]
        s2 = result.instance.left[1]
        assert s1["B"] == s2["B"]
        assert s1["C"] == s2["C"]
        # The chase enforced ψ3's conclusion transitively — the semantic
        # counterpart of Σ0 ⊨m ψ3 (Example 3.3).
        assert satisfies(example23, result.instance, psi3)

    def test_merged_cells_report_identification(self, example23, psi):
        psi1, psi2, _ = psi
        result = enforce(example23, [psi1, psi2])
        assert result.identified(0, 1, [("B", "B"), ("C", "C")])
        assert not result.identified(0, 1, [("A", "A")]) or (
            example23.left[0]["A"] == example23.left[1]["A"]
        )

    def test_candidate_pair_restriction(self, example23, psi):
        psi1, _, _ = psi
        result = enforce(example23, [psi1], candidate_pairs=[])
        assert result.applications == 0

    def test_rounds_bounded(self, example23, psi):
        psi1, psi2, _ = psi
        result = enforce(example23, [psi1, psi2], max_rounds=1)
        assert result.rounds == 1

    def test_fig2_enforcement_of_phi2(self, fig1, sigma):
        """Fig. 2: enforcing ϕ2 equalizes t1[addr] and t4[post]."""
        pair, credit, billing = fig1
        instance = InstancePair(pair, credit, billing)
        phi2 = sigma[1]
        result = enforce(instance, [phi2])
        assert result.stable
        t1 = result.instance.left[0]
        t4 = result.instance.right[1]
        assert t1["addr"] == t4["post"]
        # The informative resolver picks the full address over "NJ".
        assert t1["addr"] == "10 Oak Street, MH, NJ 07974"

    def test_fig1_full_chase_matches_all_four(self, fig1, sigma, target):
        """Enforcing Σc matches t1 with each of t3–t6 (Example 1.1)."""
        pair, credit, billing = fig1
        instance = InstancePair(pair, credit, billing)
        result = enforce(instance, sigma)
        assert result.stable
        target_pairs = target.attribute_pairs()
        for billing_tid in range(4):
            assert result.identified(0, billing_tid, target_pairs), (
                f"t1 should match t{billing_tid + 3}"
            )
        # t2 (credit tid 1) matches nothing.
        for billing_tid in range(4):
            assert not result.identified(1, billing_tid, target_pairs)


class TestValueResolver:
    def test_prefer_informative_majority_among_equal_lengths(self):
        assert prefer_informative(["x", "x", "y"]) == "x"

    def test_prefer_informative_length(self):
        assert prefer_informative(["NJ", "10 Oak Street, NJ"]) == (
            "10 Oak Street, NJ"
        )

    def test_prefer_informative_nulls(self):
        assert prefer_informative([None, None]) is None
        assert prefer_informative([None, "x"]) == "x"

    def test_deterministic_tie_break(self):
        assert prefer_informative(["ab", "ba"]) == prefer_informative(
            ["ba", "ab"]
        )


class TestInstancePair:
    def test_schema_validation(self, abc_pair):
        wrong = Relation(RelationSchema("S", ["X"]))
        with pytest.raises(ValueError):
            InstancePair(abc_pair, wrong, wrong)

    def test_one_relation_on_both_sides_is_refused(self, abc_pair):
        relation = Relation(abc_pair.left, [{"A": "a", "B": "b", "C": "c"}])
        with pytest.raises(ValueError, match=r"relation\.copy\(\)"):
            InstancePair(abc_pair, relation, relation)

    def test_copy_of_a_self_match_copies_both_relations(self, example23):
        duplicate = example23.copy()
        assert duplicate.left is not duplicate.right
        assert duplicate.left is not example23.left
        assert duplicate.extends(example23)
        duplicate.right.set_value(0, "B", "b2")
        assert duplicate.left[0]["B"] == example23.right[0]["B"] == "b1"

    def test_self_match_pairs_include_reflexive_and_both_orders(self, example23):
        pairs = list(example23.tuple_pairs())
        assert pairs == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_cross_relation_pairs(self, fig1):
        pair, credit, billing = fig1
        instance = InstancePair(pair, credit, billing)
        assert len(list(instance.tuple_pairs())) == 2 * 4
