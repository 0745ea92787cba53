"""Executable forms of the inference lemmas of Section 3.2.

The paper's sound-and-complete inference system I has 11 axioms; the text
presents four lemmas that the deduction algorithm leans on.  This test
helper module states them as MD rewritings so ``test_inference.py`` can
check each one against :func:`repro.core.closure.deduces` — every MD built
by these constructors must be deducible from its premises.

* :func:`augment_lhs` — Lemma 3.1(1): LHS(φ) may gain any similarity test.
* :func:`augment_both` — Lemma 3.1(2): an *equality* test added to LHS(φ)
  may also extend RHS(φ) with the tested pair.
* :func:`weaken_similarity_to_equality` — Lemma 3.2(2): a similarity
  conjunct may be strengthened to equality (the premise gets harder, so
  the MD stays deducible).
* :func:`transitivity` — Lemma 3.3: from ``X → W`` and ``W → Z`` deduce
  ``X → Z`` (with W compared by any operators on the second MD's LHS; the
  classic case uses the identified W pairs directly).
"""

from __future__ import annotations

from typing import Tuple

from repro.core.md import MatchingDependency, SimilarityAtom
from repro.core.similarity import EQUALITY


def augment_lhs(
    dependency: MatchingDependency, left: str, right: str, operator
) -> MatchingDependency:
    """Lemma 3.1(1): ``LHS(φ) ∧ R1[A] ≈ R2[B] → RHS(φ)``."""
    return dependency.with_extra_lhs(left, right, operator)


def augment_both(
    dependency: MatchingDependency, left: str, right: str
) -> MatchingDependency:
    """Lemma 3.1(2): add ``R1[A] = R2[B]`` to LHS and ``A ⇌ B`` to RHS.

    Only the equality operator supports extending the RHS: an equality in
    the premise *is already* an identification of the pair on stable
    instances.
    """
    augmented = dependency.with_extra_lhs(left, right, EQUALITY)
    if (left, right) in dependency.rhs_attribute_pairs():
        return augmented
    return MatchingDependency(
        augmented.pair, augmented.lhs, augmented.rhs + ((left, right),)
    )


def weaken_similarity_to_equality(
    dependency: MatchingDependency, position: int
) -> MatchingDependency:
    """Lemma 3.2(2): replace the operator of one LHS conjunct with ``=``.

    Equality subsumes every similarity operator, so the new MD has a
    strictly stronger premise and is deducible from the original.
    """
    atoms = list(dependency.lhs)
    if not 0 <= position < len(atoms):
        raise IndexError(
            f"LHS position {position} out of range for {dependency}"
        )
    atoms[position] = atoms[position].with_operator(EQUALITY)
    return MatchingDependency(dependency.pair, atoms, dependency.rhs)


def transitivity(
    first: MatchingDependency, second: MatchingDependency
) -> Tuple[MatchingDependency, ...]:
    """Lemma 3.3: compose ``φ1: X → W`` with ``φ2: W' → Z`` when W ⊇ W'.

    Requires every LHS attribute pair of ``second`` to appear among the
    RHS (identified) pairs of ``first`` — on stable instances those pairs
    are *equal*, hence satisfy any similarity test of ``second``'s LHS.
    Returns the composed MD ``X → Z``.
    """
    if first.pair != second.pair:
        raise ValueError("the two MDs are over different schema pairs")
    identified = set(first.rhs_attribute_pairs())
    missing = [
        atom
        for atom in second.lhs
        if atom.attribute_pair not in identified
    ]
    if missing:
        raise ValueError(
            "cannot compose: second MD's LHS pairs "
            f"{[str(atom) for atom in missing]} are not identified by the first MD"
        )
    return (MatchingDependency(first.pair, first.lhs, second.rhs),)


def reflexive_key_md(dependency: MatchingDependency) -> MatchingDependency:
    """The always-deducible MD ``⋀ (Z1[j] = Z2[j]) → Z1 ⇌ Z2``.

    For any comparable (Z1, Z2): pairwise-equal values are already
    identified.  Useful as a sanity baseline in tests.
    """
    pairs = dependency.rhs_attribute_pairs()
    lhs = [
        SimilarityAtom(left, right, EQUALITY) for left, right in pairs
    ]
    return MatchingDependency(dependency.pair, lhs, pairs)
