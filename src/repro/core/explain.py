"""Explainable deduction: *why* does Σ ⊨m φ hold?

``MDClosure`` answers yes/no; rule authors debugging a surprising
deduction (or its absence) need the derivation.  The closure engine
already sets every entry with its justification
(:class:`repro.core.closure.Justification`) —

* ``premise``: asserted by LHS(φ);
* ``fired``: produced by an MD of Σ whose LHS tests are all satisfied
  (with pointers to the facts that satisfied them);
* ``equality``: derived from two parent facts by the equality axioms
  (substitution/transport) —

so :func:`explain` runs one closure and reads the answer off it: the goals
(the RHS pairs of φ), the backward slice of the facts they depend on, and
those facts in the engine's derivation order.  The result is an
:class:`Explanation` whose ``steps`` print as a proof trace like
Example 4.1's table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .closure import ClosureEngine
from .matrix import Entry
from .md import IdentificationAtom, MatchingDependency
from .schema import SchemaPair
from .similarity import EQUALITY

#: A derived fact: (attribute, attribute, operator), symmetric in a, b.
Fact = Entry


@dataclass(frozen=True)
class Step:
    """One derivation step."""

    fact: Fact
    kind: str  # "premise" | "fired" | "equality"
    rule: Optional[MatchingDependency] = None
    parents: Tuple[Fact, ...] = ()

    def render(self) -> str:
        a, b, op = self.fact
        fact_text = f"{a.display} {op} {b.display}"
        if self.kind == "premise":
            return f"{fact_text}    [premise]"
        if self.kind == "fired":
            return f"{fact_text}    [by MD: {self.rule}]"
        parent_text = "; ".join(
            f"{pa.display} {pop} {pb.display}" for pa, pb, pop in self.parents
        )
        return f"{fact_text}    [equality axioms from: {parent_text}]"


@dataclass
class Explanation:
    """The outcome of :func:`explain`.

    ``missing`` lists the RHS pairs of φ the closure does not identify
    (empty iff ``deduced``).
    """

    deduced: bool
    phi: MatchingDependency
    steps: List[Step] = field(default_factory=list)
    missing: Tuple[IdentificationAtom, ...] = ()

    def render(self) -> str:
        """A readable proof trace (or a failure report)."""
        header = (
            f"Sigma |=m phi: {self.deduced}\n"
            f"phi: {self.phi}\n"
        )
        if not self.deduced:
            missing = ", ".join(f"{atom.left}~{atom.right}" for atom in self.missing)
            return header + (
                f"No derivation reaches {missing}; "
                f"{len(self.steps)} fact(s) were derivable from the premise."
            )
        lines = [header + "Derivation:"]
        for index, step in enumerate(self.steps, start=1):
            lines.append(f"  {index:>3}. {step.render()}")
        return "\n".join(lines)

    def rules_used(self) -> List[MatchingDependency]:
        """The MDs of Σ that appear in the derivation, in firing order."""
        seen = []
        for step in self.steps:
            if step.kind == "fired" and step.rule not in seen:
                seen.append(step.rule)
        return seen


def explain(
    pair: SchemaPair,
    sigma: Sequence[MatchingDependency],
    phi: MatchingDependency,
) -> Explanation:
    """Decide Σ ⊨m φ and return the derivation (or a failure report).

    When φ is deduced the steps are the *relevant* ones: facts on which
    some RHS pair of φ transitively depends, in derivation order.
    Otherwise they are every fact of the closure.
    """
    if phi.pair != pair:
        raise ValueError("phi is defined over a different schema pair")
    matrix, _ = ClosureEngine(pair, sigma).closure(phi.lhs)

    goals: List[Entry] = []
    missing: List[IdentificationAtom] = []
    for atom in phi.rhs:
        goal = matrix.entry(pair.left_attr(atom.left), pair.right_attr(atom.right), EQUALITY)
        if goal is None:
            missing.append(atom)
        else:
            goals.append(goal)

    entries = matrix.entries()
    if not missing:
        # Backward slice from the goals, then the engine's derivation order.
        needed = set()
        frontier = goals
        while frontier:
            entry = frontier.pop()
            if entry not in needed:
                needed.add(entry)
                frontier.extend(matrix.why(entry).parents)
        entries = [entry for entry in entries if entry in needed]
    steps = [Step(entry, *matrix.why(entry)) for entry in entries]
    return Explanation(
        deduced=not missing, phi=phi, steps=steps, missing=tuple(missing)
    )
