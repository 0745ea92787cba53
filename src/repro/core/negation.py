"""Negative matching rules — the first extension of Section 8.

"An extension of MDs is to support 'negation', to specify when records
*cannot* be matched."  A :class:`NegativeRule` has the same LHS shape as
an MD but concludes non-identity::

    ⋀_j R1[X1[j]] ≈_j R2[X2[j]]   →   R1[Z1] <!> R2[Z2]

e.g. "same full name but different SSNs → not the same person".

Two facilities are provided:

* **static conflict checking** — :func:`find_conflicts` reports every
  negative rule whose premise, chased through Σ with ``MDClosure``,
  *forces* the identification it forbids.  Such a Σ would both identify
  and un-identify the same cells on some instance: the rule set is
  inconsistent and should be repaired before deployment.
* **runtime vetoing** — :class:`GuardedRuleSet` wraps the keys of a
  compiled :class:`~repro.plan.compile.EnforcementPlan` so that a pair
  some key matches (what a ``direct`` spec's batch match reads off the
  chase's first round) is rejected when any negative rule fires on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.metrics.registry import DEFAULT_REGISTRY, MetricRegistry
from repro.relations.relation import Row

from .closure import ClosureEngine
from .md import MatchingDependency, SimilarityAtom
from .schema import SchemaPair
from .similarity import EQUALITY, as_operator


@dataclass(frozen=True)
class PremiseAtom:
    """One premise conjunct of a negative rule, possibly negated.

    With ``negated=False`` this is the MD test ``R1[left] ≈ R2[right]``;
    with ``negated=True`` it is the *dissimilarity* test
    ``NOT (R1[left] ≈ R2[right])`` — the construct negative rules need to
    say "same address but *different* first names".  Positive MDs keep
    their purely positive LHS language (the paper's definition); negation
    lives only in this extension.
    """

    atom: SimilarityAtom
    negated: bool = False

    def holds(
        self,
        left_row: Row,
        right_row: Row,
        registry: MetricRegistry = DEFAULT_REGISTRY,
    ) -> bool:
        predicate = registry.resolve(self.atom.operator.name)
        result = bool(
            predicate(left_row[self.atom.left], right_row[self.atom.right])
        )
        return (not result) if self.negated else result

    def __str__(self) -> str:
        text = str(self.atom)
        return f"not({text})" if self.negated else text


def _coerce_premise(entry) -> PremiseAtom:
    if isinstance(entry, PremiseAtom):
        return entry
    if isinstance(entry, SimilarityAtom):
        return PremiseAtom(entry)
    if len(entry) == 4:
        left, right, operator, negated = entry
        return PremiseAtom(
            SimilarityAtom(left, right, as_operator(operator)), bool(negated)
        )
    left, right, operator = entry
    return PremiseAtom(SimilarityAtom(left, right, as_operator(operator)))


@dataclass(frozen=True)
class NegativeRule:
    """``LHS → Z1 <!> Z2``: premise implies the pair is NOT one entity.

    ``lhs`` accepts :class:`PremiseAtom`, :class:`SimilarityAtom`,
    ``(left, right, op)`` triples, or ``(left, right, op, negated)``
    quadruples; ``forbidden`` lists the (left, right) attribute pairs
    whose identification the rule forbids.  Matching uses the rule as a
    whole — if the premise holds, the tuple pair is vetoed.
    """

    pair: SchemaPair
    lhs: Tuple[PremiseAtom, ...]
    forbidden: Tuple[Tuple[str, str], ...]
    name: str = "negative-rule"

    @classmethod
    def build(
        cls,
        pair: SchemaPair,
        lhs: Iterable,
        forbidden: Iterable[Tuple[str, str]],
        name: str = "negative-rule",
    ) -> "NegativeRule":
        atoms = tuple(_coerce_premise(entry) for entry in lhs)
        rule = cls(pair, atoms, tuple(forbidden), name)
        rule._validate()
        return rule

    def _validate(self) -> None:
        if not self.lhs:
            raise ValueError("a negative rule needs a non-empty LHS")
        if not self.forbidden:
            raise ValueError("a negative rule must forbid at least one pair")
        self.pair.require_comparable(
            [premise.atom.left for premise in self.lhs],
            [premise.atom.right for premise in self.lhs],
        )
        self.pair.require_comparable(
            [left for left, _ in self.forbidden],
            [right for _, right in self.forbidden],
        )

    def positive_atoms(self) -> Tuple[SimilarityAtom, ...]:
        """The non-negated premise tests (what a closure may assume)."""
        return tuple(
            premise.atom for premise in self.lhs if not premise.negated
        )

    def fires(
        self,
        left_row: Row,
        right_row: Row,
        registry: MetricRegistry = DEFAULT_REGISTRY,
    ) -> bool:
        """Does the premise (including negated tests) hold for the pair?"""
        return all(
            premise.holds(left_row, right_row, registry)
            for premise in self.lhs
        )

    def __str__(self) -> str:
        left_name = self.pair.left.name
        right_name = self.pair.right.name

        def atom_text(premise: PremiseAtom) -> str:
            core = (
                f"{left_name}[{premise.atom.left}] {premise.atom.operator} "
                f"{right_name}[{premise.atom.right}]"
            )
            return f"not({core})" if premise.negated else core

        lhs_text = " & ".join(atom_text(premise) for premise in self.lhs)
        rhs_text = " & ".join(
            f"{left_name}[{left}] <!> {right_name}[{right}]"
            for left, right in self.forbidden
        )
        return f"{lhs_text} -> {rhs_text}"


@dataclass(frozen=True)
class Conflict:
    """A negative rule contradicted by Σ."""

    rule: NegativeRule
    forced_pairs: Tuple[Tuple[str, str], ...]

    def __str__(self) -> str:
        pairs = ", ".join(f"{l}~{r}" for l, r in self.forced_pairs)
        return f"{self.rule.name}: Sigma forces identification of {pairs}"


def find_conflicts(
    pair: SchemaPair,
    sigma: Sequence[MatchingDependency],
    negatives: Sequence[NegativeRule],
) -> List[Conflict]:
    """Static consistency check of Σ against negative rules.

    For each negative rule, compute the closure of Σ and the rule's
    *positive* premise atoms (negated tests assert the absence of a fact,
    which a closure cannot consume — they only make the premise rarer, so
    ignoring them is conservative: every reported conflict is real on any
    instance where the full premise holds); if any forbidden pair is
    identified in the closure, Σ demands exactly the identification the
    rule forbids — an irreconcilable conflict.

    >>> # see tests/core/test_negation.py for worked cases
    """
    engine = ClosureEngine(pair, sigma)
    conflicts: List[Conflict] = []
    for rule in negatives:
        if rule.pair != pair:
            raise ValueError(
                f"negative rule {rule.name!r} is over a different schema pair"
            )
        matrix, _ = engine.closure(rule.positive_atoms())
        forced = tuple(
            (left, right)
            for left, right in rule.forbidden
            if matrix.get(
                pair.left_attr(left), pair.right_attr(right), EQUALITY
            )
        )
        if forced:
            conflicts.append(Conflict(rule, forced))
    return conflicts


class GuardedRuleSet:
    """A compiled plan's keys guarded by negative vetoes.

    A pair matches iff some key of the ``positive`` plan matches it
    (:meth:`~repro.plan.compile.EnforcementPlan.key_matches`, through the
    plan's own registry and memo) AND no negative rule fires (through
    ``registry``).
    """

    def __init__(self, positive, negatives: Sequence[NegativeRule]) -> None:
        self.positive = positive
        self.negatives = tuple(negatives)

    def __len__(self) -> int:
        return len(self.positive.keys) + len(self.negatives)

    def matches(
        self,
        left_row: Row,
        right_row: Row,
        registry: MetricRegistry = DEFAULT_REGISTRY,
    ) -> bool:
        """Positive match not vetoed by any negative rule."""
        plan = self.positive
        if not any(
            plan.key_matches(key.predicates, left_row, right_row)
            for key in plan.keys
        ):
            return False
        return not any(
            rule.fires(left_row, right_row, registry)
            for rule in self.negatives
        )

    def veto_reason(
        self,
        left_row: Row,
        right_row: Row,
        registry: MetricRegistry = DEFAULT_REGISTRY,
    ) -> str:
        """Name of the first negative rule that fires, or ''."""
        for rule in self.negatives:
            if rule.fires(left_row, right_row, registry):
                return rule.name
        return ""
