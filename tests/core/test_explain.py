"""Tests for explainable deduction.

Besides spot checks, every explanation here goes through
:func:`check_derivation`, an independent checker that re-verifies each step
against Σ, φ and the axioms, and whose verdict must equal the engine's.
"""

import dataclasses

import pytest

from repro.core.closure import ClosureEngine
from repro.core.explain import explain
from repro.core.findrcks import find_rcks
from repro.core.md import MatchingDependency
from repro.core.rck import RelativeKey
from repro.core.schema import RelationSchema, SchemaPair
from repro.core.similarity import EQUALITY
from repro.datagen.mdgen import generate_workload
from repro.datagen.schemas import (
    credit_billing_pair,
    extended_mds,
    extended_pair,
    extended_target,
    paper_mds,
    paper_target,
)


class BrokenDerivation(Exception):
    """A step of an explanation that its justification does not support."""


def _ends(fact):
    return frozenset(fact[:2])


def _combines(first, second, fact):
    """Is ``fact`` a substitution or a transport of the two parent facts?

    Both axioms have one shape: an equality ``x = y`` and a fact ``x ≈ v``
    sharing the endpoint ``x`` give ``y ≈ v``.
    """
    for equality, other in ((first, second), (second, first)):
        if not equality[2].is_equality or other[2] != fact[2]:
            continue
        for x, y in (equality[:2], equality[1::-1]):
            for u, v in (other[:2], other[1::-1]):
                if u == x and _ends(fact) == frozenset((y, v)):
                    return True
    return False


def check_derivation(pair, rules, phi, explanation):
    """Verify every step of ``explanation``; return the verdict it proves.

    ``rules`` is normalized Σ (one RHS pair per MD), as a set.

    Raises :class:`BrokenDerivation` at the first step its justification
    does not support: a premise that is not an atom of LHS(φ), a fired rule
    that is not in normalized Σ or whose LHS is not satisfied by earlier
    steps (with ``=`` or the exact operator), or an equality step that is
    not a substitution or transport of two earlier steps.
    """
    def atom_ends(atom):
        return frozenset((pair.left_attr(atom.left), pair.right_attr(atom.right)))

    premises = {(atom_ends(atom), atom.operator) for atom in phi.lhs}
    known = set()

    def require(condition, step, why):
        if not condition:
            raise BrokenDerivation(f"{step.render()}: {why}")

    for step in explanation.steps:
        fact = step.fact
        require(fact[0] != fact[1], step, "reflexive fact")
        if step.kind == "premise":
            require((_ends(fact), fact[2]) in premises, step, "not an atom of LHS(phi)")
        elif step.kind == "fired":
            require(step.rule in rules, step, "rule not in normalized Sigma")
            require(
                fact[2] == EQUALITY and _ends(fact) == atom_ends(step.rule.rhs[0]),
                step,
                "fact is not the rule's RHS pair",
            )
            require(len(step.parents) == len(step.rule.lhs), step, "one parent per LHS atom")
            for atom, parent in zip(step.rule.lhs, step.parents):
                require((_ends(parent), parent[2]) in known, step, "parent not derived earlier")
                require(
                    _ends(parent) == atom_ends(atom)
                    and (parent[2] == EQUALITY or parent[2] == atom.operator),
                    step,
                    f"LHS atom {atom} unsatisfied",
                )
        elif step.kind == "equality":
            require(len(step.parents) == 2, step, "two parents")
            for parent in step.parents:
                require((_ends(parent), parent[2]) in known, step, "parent not derived earlier")
            require(_combines(*step.parents, fact), step, "not a substitution or transport")
        else:
            require(False, step, f"unknown kind {step.kind!r}")
        known.add((_ends(fact), fact[2]))
    return all((atom_ends(atom), EQUALITY) in known for atom in phi.rhs)


def _normalized(sigma):
    return {rule for dependency in sigma for rule in dependency.normalize()}


def _checked(pair, sigma, phi):
    explanation = explain(pair, sigma, phi)
    verdict = check_derivation(pair, _normalized(sigma), phi, explanation)
    assert verdict == explanation.deduced
    return explanation


@pytest.fixture
def rck4_md(target):
    return RelativeKey.from_triples(
        target, [("email", "email", "="), ("tel", "phn", "=")]
    ).to_md()


def _fan_out_case():
    """``A ⇌ B…F`` both ways, and a jw rule needing all five B…F pairs.

    Each ``L:A jw L:X`` is set while one entry's equality neighbours are
    walked, so their order is the neighbours' order: kept as sets, it
    followed the interpreter's hash seed.
    """
    schema = RelationSchema("R", ["A", "B", "C", "D", "E", "F", "G", "K"])
    pair = SchemaPair(schema, schema)
    others = ["B", "C", "D", "E", "F"]
    sigma = [
        MatchingDependency(
            pair,
            [("K", "K", "=")],
            [("A", x) for x in others] + [(x, "A") for x in others],
        ),
        MatchingDependency(pair, [(x, x, "jw(0.9)") for x in others], [("G", "G")]),
    ]
    phi = MatchingDependency(
        pair, [("K", "K", "="), ("A", "A", "jw(0.9)")], [("G", "G")]
    )
    return pair, sigma, phi


FAN_OUT_GOLDEN = """\
Sigma |=m phi: True
phi: R[K] = R[K] & R[A] jw(0.9) R[A] -> R[G] <=> R[G]
Derivation:
    1. L:R[K] = R:R[K]    [premise]
    2. L:R[A] jw(0.9) R:R[A]    [premise]
    3. L:R[A] = R:R[B]    [by MD: R[K] = R[K] -> R[A] <=> R[B]]
    4. L:R[A] = R:R[C]    [by MD: R[K] = R[K] -> R[A] <=> R[C]]
    5. L:R[A] = R:R[D]    [by MD: R[K] = R[K] -> R[A] <=> R[D]]
    6. L:R[A] = R:R[E]    [by MD: R[K] = R[K] -> R[A] <=> R[E]]
    7. L:R[A] = R:R[F]    [by MD: R[K] = R[K] -> R[A] <=> R[F]]
    8. L:R[B] = R:R[A]    [by MD: R[K] = R[K] -> R[B] <=> R[A]]
    9. L:R[C] = R:R[A]    [by MD: R[K] = R[K] -> R[C] <=> R[A]]
   10. L:R[D] = R:R[A]    [by MD: R[K] = R[K] -> R[D] <=> R[A]]
   11. L:R[E] = R:R[A]    [by MD: R[K] = R[K] -> R[E] <=> R[A]]
   12. L:R[F] = R:R[A]    [by MD: R[K] = R[K] -> R[F] <=> R[A]]
   13. L:R[A] jw(0.9) L:R[B]    [equality axioms from: L:R[A] jw(0.9) R:R[A]; L:R[B] = R:R[A]]
   14. L:R[A] jw(0.9) L:R[C]    [equality axioms from: L:R[A] jw(0.9) R:R[A]; L:R[C] = R:R[A]]
   15. L:R[A] jw(0.9) L:R[D]    [equality axioms from: L:R[A] jw(0.9) R:R[A]; L:R[D] = R:R[A]]
   16. L:R[A] jw(0.9) L:R[E]    [equality axioms from: L:R[A] jw(0.9) R:R[A]; L:R[E] = R:R[A]]
   17. L:R[A] jw(0.9) L:R[F]    [equality axioms from: L:R[A] jw(0.9) R:R[A]; L:R[F] = R:R[A]]
   18. L:R[B] jw(0.9) R:R[B]    [equality axioms from: L:R[A] = R:R[B]; L:R[A] jw(0.9) L:R[B]]
   19. L:R[C] jw(0.9) R:R[C]    [equality axioms from: L:R[A] = R:R[C]; L:R[A] jw(0.9) L:R[C]]
   20. L:R[D] jw(0.9) R:R[D]    [equality axioms from: L:R[A] = R:R[D]; L:R[A] jw(0.9) L:R[D]]
   21. L:R[E] jw(0.9) R:R[E]    [equality axioms from: L:R[A] = R:R[E]; L:R[A] jw(0.9) L:R[E]]
   22. L:R[F] jw(0.9) R:R[F]    [equality axioms from: L:R[A] = R:R[F]; L:R[A] jw(0.9) L:R[F]]
   23. L:R[G] = R:R[G]    [by MD: R[B] jw(0.9) R[B] & R[C] jw(0.9) R[C] & R[D] jw(0.9) R[D] \
& R[E] jw(0.9) R[E] & R[F] jw(0.9) R[F] -> R[G] <=> R[G]]"""


class TestExplainPositive:
    def test_rck4_derivation(self, pair, sigma, rck4_md):
        explanation = _checked(pair, sigma, rck4_md)
        assert explanation.deduced
        kinds = [step.kind for step in explanation.steps]
        assert "premise" in kinds
        assert "fired" in kinds

    def test_rules_used_matches_example_41(self, pair, sigma, rck4_md):
        """Example 4.1: the closure applies ϕ2, ϕ3, then ϕ1."""
        explanation = explain(pair, sigma, rck4_md)
        used = explanation.rules_used()
        # All three MDs contribute (ϕ1 is normalized into several rules;
        # compare by LHS).
        used_lhs = {frozenset(rule.lhs) for rule in used}
        expected_lhs = {frozenset(dependency.lhs) for dependency in sigma}
        assert used_lhs == expected_lhs

    def test_steps_are_in_valid_order(self, pair, sigma, rck4_md):
        explanation = explain(pair, sigma, rck4_md)
        seen = set()
        for step in explanation.steps:
            for parent in step.parents:
                assert parent in seen, "parent fact used before derivation"
            seen.add(step.fact)

    def test_render_contains_trace(self, pair, sigma, rck4_md):
        text = explain(pair, sigma, rck4_md).render()
        assert "Sigma |=m phi: True" in text
        assert "[premise]" in text
        assert "[by MD:" in text

    def test_premises_only_for_reflexive_key(self, pair, target):
        identity = RelativeKey.identity_key(target).to_md()
        explanation = _checked(pair, [], identity)
        assert explanation.deduced
        assert all(step.kind == "premise" for step in explanation.steps)

    def test_render_golden_in_derivation_order(self):
        """Byte-identical under every hash seed (CI runs it under two)."""
        pair, sigma, phi = _fan_out_case()
        explanation = _checked(pair, sigma, phi)
        assert explanation.render() == FAN_OUT_GOLDEN


class TestExplainNegative:
    def test_failure_report(self, pair, sigma, target):
        email_only = RelativeKey.from_triples(
            target, [("email", "email", "=")]
        ).to_md()
        explanation = _checked(pair, sigma, email_only)
        assert not explanation.deduced
        assert "No derivation" in explanation.render()

    def test_failure_lists_derivable_facts(self, pair, sigma, target):
        email_only = RelativeKey.from_triples(
            target, [("email", "email", "=")]
        ).to_md()
        explanation = explain(pair, sigma, email_only)
        # ϕ3 fires from the email premise: FN and LN facts are derivable.
        assert len(explanation.steps) >= 3

    def test_failure_names_only_the_pairs_not_derived(self, pair, sigma):
        # ϕ3 identifies FN from the email premise; addr needs tel = phn.
        phi = MatchingDependency(
            pair, [("email", "email", "=")], [("FN", "FN"), ("addr", "post")]
        )
        explanation = _checked(pair, sigma, phi)
        assert [str(atom) for atom in explanation.missing] == ["addr <=> post"]
        text = explanation.render()
        assert "No derivation reaches addr~post;" in text
        assert "FN~FN" not in text


def _probes(pair, sigma, target):
    """Deduced and non-deduced MDs over ``sigma``'s schema pair."""
    probes = list(sigma[:4])
    for left, right in target:
        probes.append(MatchingDependency(pair, sigma[0].lhs, [(left, right)]))
    # One LHS conjunct of Σ, alone, against the whole target: rarely a key.
    for atom in dict.fromkeys(atom for dependency in sigma[:10] for atom in dependency.lhs):
        probes.append(MatchingDependency(pair, [atom], list(target)))
    for key in find_rcks(sigma, target, m=3):
        key_md = key.to_md()
        probes.append(key_md)
        if len(key_md.lhs) > 1:  # one conjunct short of a minimal key
            probes.append(MatchingDependency(pair, key_md.lhs[:-1], key_md.rhs))
    return probes


def _workloads():
    paper = credit_billing_pair()
    yield "paper", paper, paper_mds(paper), paper_target(paper)
    extended = extended_pair()
    yield "extended", extended, extended_mds(extended), extended_target(extended)
    for seed in range(20):
        workload = generate_workload(md_count=200, target_length=6, seed=seed)
        yield f"mdgen{seed}", workload.pair, list(workload.sigma), workload.target


class TestDerivationChecker:
    def test_every_explanation_checks_and_agrees_with_the_engine(self):
        kinds = set()
        for name, pair, sigma, target in _workloads():
            engine = ClosureEngine(pair, sigma)
            rules = set(engine.normalized_mds)
            for phi in _probes(pair, sigma, target):
                explanation = explain(pair, sigma, phi)
                verdict = check_derivation(pair, rules, phi, explanation)
                assert verdict == explanation.deduced == engine.deduces(phi), (name, str(phi))
                kinds.add(verdict)
                kinds.update(step.kind for step in explanation.steps)
        assert kinds == {True, False, "premise", "fired"}

    def test_equality_steps_check_and_agree_with_the_engine(self):
        """The generated Σ above never sets an equality step; this one does."""
        pair, sigma, phi = _fan_out_case()
        probes = [
            phi,
            MatchingDependency(pair, [("K", "K", "=")], [("G", "G")]),
            MatchingDependency(pair, phi.lhs, [("B", "B")]),  # A = B one way only
        ]
        engine = ClosureEngine(pair, sigma)
        verdicts = []
        for probe in probes:
            explanation = explain(pair, sigma, probe)
            assert any(step.kind == "equality" for step in explanation.steps)
            verdicts.append(check_derivation(pair, _normalized(sigma), probe, explanation))
            assert verdicts[-1] == explanation.deduced == engine.deduces(probe)
        assert verdicts == [True, False, False]

    def test_rejects_a_parent_listed_after_its_child(self, pair, sigma, rck4_md):
        explanation = explain(pair, sigma, rck4_md)
        steps = explanation.steps
        child = next(i for i, step in enumerate(steps) if step.parents)
        parent = next(i for i, step in enumerate(steps) if step.fact == steps[child].parents[0])
        steps.insert(child, steps.pop(parent))  # the parent now follows its child
        with pytest.raises(BrokenDerivation, match="parent not derived earlier"):
            check_derivation(pair, _normalized(sigma), rck4_md, explanation)

    def test_rejects_a_fired_step_with_an_unsatisfied_lhs_atom(self, pair, sigma, rck4_md):
        explanation = explain(pair, sigma, rck4_md)
        steps = explanation.steps
        index = max(i for i, step in enumerate(steps) if step.kind == "fired" and step.parents)
        step = steps[index]
        # Swap one satisfying parent for an earlier fact on another pair.
        other = next(s.fact for s in steps[:index] if _ends(s.fact) != _ends(step.parents[0]))
        steps[index] = dataclasses.replace(step, parents=(other,) + step.parents[1:])
        with pytest.raises(BrokenDerivation, match="unsatisfied"):
            check_derivation(pair, _normalized(sigma), rck4_md, explanation)

    def test_rejects_an_equality_step_whose_parents_share_no_endpoint(self):
        pair, sigma, phi = _fan_out_case()
        explanation = explain(pair, sigma, phi)
        steps = explanation.steps
        index = next(i for i, step in enumerate(steps) if step.kind == "equality")
        premises = tuple(step.fact for step in steps[:2])  # K = K and A jw A
        assert not _ends(premises[0]) & _ends(premises[1])
        steps[index] = dataclasses.replace(steps[index], parents=premises)
        with pytest.raises(BrokenDerivation, match="not a substitution or transport"):
            check_derivation(pair, _normalized(sigma), phi, explanation)


class TestAgreementWithEngine:
    @pytest.mark.parametrize("seed", [0, 5, 11, 40])
    def test_explain_agrees_with_closure_engine(self, seed):
        workload = generate_workload(md_count=10, target_length=4, seed=seed)
        pair, sigma = workload.pair, list(workload.sigma)
        engine = ClosureEngine(pair, sigma)
        probes = list(sigma[:4])
        for left, right in workload.target:
            probes.append(
                MatchingDependency(pair, sigma[0].lhs, [(left, right)])
            )
        for phi in probes:
            assert explain(pair, sigma, phi).deduced == engine.deduces(phi)
