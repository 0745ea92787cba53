"""The dynamic semantics of MDs (Section 2.1).

An MD does not constrain a single instance: a *pair* ``(D, D')`` of
instances of ``(R1, R2)`` with ``D ⊑ D'`` satisfies φ when for every tuple
pair ``(t1, t2)`` matching LHS(φ) in ``D``,

(a) ``t1[Z1] = t2[Z2]`` in ``D'`` (the RHS attributes got identified), and
(b) ``(t1, t2)`` still match LHS(φ) in ``D'``.

An instance ``D`` is *stable* for Σ when ``(D, D) ⊨ Σ`` — a fixpoint of
enforcement.  Deduction (Σ ⊨m φ) quantifies over stable instances.  The
chase that constructs one — which is how MDs are actually *used* to match
records: two tuples are declared a match when enforcement identified
their target attributes — is :class:`repro.plan.executor.ChaseState`,
reached through ``compile_plan(sigma=Σ).enforce(instance, …)``.  It
merges *cells* — (side, tuple id, attribute) triples — into classes, then
assigns every merged class a single value chosen by a
:data:`ValueResolver` policy.  Merging is monotone, so the chase
terminates; stability of the result can be re-checked with
:func:`is_stable`, because a resolver that changes a value may in
principle break a similarity that an earlier rule application relied on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.metrics.registry import DEFAULT_REGISTRY, MetricRegistry
from repro.relations.relation import Relation

from .md import MatchingDependency
from .schema import SchemaPair

#: Policy choosing the value a merged cell class takes.  Receives the
#: multiset of current values (nulls included) and returns the resolved one.
#:
#: The contract the chase relies on: given values that are all ``==`` to
#: one another, a policy returns a value ``==`` to them — or ``None`` when
#: they are all null.  Resolving such a class then writes nothing, so the
#: chase skips it (a union of two classes that agree calls no resolver).
#: Every entry of ``repro.api.spec.VALUE_POLICIES`` is held to it by a
#: test.
ValueResolver = Callable[[Sequence[object]], object]


def prefer_informative(values: Sequence[object]) -> object:
    """Default resolver: longest non-null value, then most frequent.

    The matching operator only requires the cells to be *identified*
    (Example 2.2: "does not specify how they are updated"), so the
    resolver is a policy choice.  Preferring the longest value keeps the
    most informative variant ("10 Oak Street, MH, NJ 07974" over the
    truncated "NJ") even when damaged copies outnumber it; frequency then
    lexicographic order break ties deterministically.
    """
    non_null = [value for value in values if value is not None]
    if not non_null:
        return None
    counts: Dict[object, int] = {}
    for value in non_null:
        counts[value] = counts.get(value, 0) + 1
    if len(counts) == 1:
        return non_null[0]
    return max(
        counts,
        key=lambda value: (len(str(value)), counts[value], str(value)),
    )


@dataclass(frozen=True)
class InstancePair:
    """An instance ``D = (I1, I2)`` of a schema pair, over two relations.

    Matching a relation against itself (deduplication, ``R1 = R2``) is the
    pair of the relation and its ``copy()``: cells are qualified by side,
    mirroring the qualified attributes of the reasoning layer, and a
    repair to one side's cell is not seen by the other.  One ``Relation``
    object on both sides is refused.
    """

    pair: SchemaPair
    left: Relation
    right: Relation

    def __post_init__(self) -> None:
        if self.left.schema != self.pair.left:
            raise ValueError("left relation schema does not match the pair")
        if self.right.schema != self.pair.right:
            raise ValueError("right relation schema does not match the pair")
        if self.left is self.right:
            raise ValueError(
                "left and right are one Relation object; to match a relation "
                "against itself, pass it and relation.copy()"
            )

    def copy(self) -> "InstancePair":
        """An extension-ready copy (same tuple ids, fresh storage)."""
        return InstancePair(self.pair, self.left.copy(), self.right.copy())

    def extends(self, original: "InstancePair") -> bool:
        """``original ⊑ self`` componentwise."""
        return self.left.extends(original.left) and self.right.extends(
            original.right
        )

    def tuple_pairs(self) -> Iterable[Tuple[int, int]]:
        """All ``(t1, t2) ∈ D`` as (left tid, right tid) pairs."""
        for tid1 in self.left.tids():
            for tid2 in self.right.tids():
                yield tid1, tid2


def lhs_matches(
    dependency: MatchingDependency,
    instance: InstancePair,
    left_tid: int,
    right_tid: int,
    registry: MetricRegistry = DEFAULT_REGISTRY,
) -> bool:
    """Do ``(t1, t2)`` match LHS(φ) in the given instance?

    Every conjunct ``R1[X1[j]] ≈_j R2[X2[j]]`` must hold for the tuples'
    current values, with operators resolved through ``registry``.
    """
    t1 = instance.left[left_tid]
    t2 = instance.right[right_tid]
    for atom in dependency.lhs:
        predicate = registry.resolve(atom.operator.name)
        if not predicate(t1[atom.left], t2[atom.right]):
            return False
    return True


def satisfies(
    original: InstancePair,
    extended: InstancePair,
    dependency: MatchingDependency,
    registry: MetricRegistry = DEFAULT_REGISTRY,
    candidate_pairs: Optional[Iterable[Tuple[int, int]]] = None,
) -> bool:
    """``(D, D') ⊨ φ`` per the paper's Section 2.1 definition.

    ``candidate_pairs`` restricts the check to the given tuple pairs (all
    pairs when omitted — quadratic, intended for tests and small data).
    """
    if not extended.extends(original):
        return False
    pairs = candidate_pairs if candidate_pairs is not None else original.tuple_pairs()
    for left_tid, right_tid in pairs:
        if not lhs_matches(dependency, original, left_tid, right_tid, registry):
            continue
        # (a) RHS identified in D'.
        t1 = extended.left[left_tid]
        t2 = extended.right[right_tid]
        for atom in dependency.rhs:
            if t1[atom.left] != t2[atom.right]:
                return False
        # (b) LHS still matched in D'.
        if not lhs_matches(dependency, extended, left_tid, right_tid, registry):
            return False
    return True


def satisfies_all(
    original: InstancePair,
    extended: InstancePair,
    sigma: Iterable[MatchingDependency],
    registry: MetricRegistry = DEFAULT_REGISTRY,
) -> bool:
    """``(D, D') ⊨ Σ``: satisfaction of every MD in Σ."""
    return all(
        satisfies(original, extended, dependency, registry)
        for dependency in sigma
    )


def is_stable(
    instance: InstancePair,
    sigma: Iterable[MatchingDependency],
    registry: MetricRegistry = DEFAULT_REGISTRY,
) -> bool:
    """Is ``D`` stable for Σ, i.e. ``(D, D) ⊨ Σ``?"""
    return satisfies_all(instance, instance, sigma, registry)
