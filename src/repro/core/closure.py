"""Algorithm ``MDClosure`` — deduction analysis for MDs (Section 4).

Given a set Σ of MDs and another MD φ over ``(R1, R2)``, decide whether
``Σ ⊨m φ``: the algorithm computes the *closure* of Σ and LHS(φ) — every
fact ``R[A] ≈ R'[B]`` that must hold on stable instances whenever LHS(φ)
holds — and answers yes iff every RHS pair of φ appears in the closure with
equality (Lemma 3.2 lets the matching operator ``⇌`` be read as ``=`` on
stable instances).

:class:`ClosureEngine` indexes LHS conjuncts so each MD in Σ is
re-examined only when one of its conjuncts becomes satisfied, the
index-based refinement the paper points to via [8, 25] ("the algorithm can
possibly be improved to O(n + h³) time").  Building the engine costs
``O(n)`` and is amortized across many queries — exactly the access pattern
of ``findRCKs``, which calls the closure once per candidate attribute
removal.

Propagation is symmetric: each newly derived edge is combined with
existing equality edges at *both* endpoints, and each newly derived
equality transports the similarity edges of *both* endpoints.  This is
the closure of the generic axioms:

* ``x ≈ y  ∧  x = z   ⟹   z ≈ y``      (equality substitution)
* ``x = y  ∧  x ≈ z   ⟹   y ≈ z``      (equality transport; with ``≈`` = ``=``
  this is transitivity of equality)

Every entry of the closure is set together with its :class:`Justification`
— a premise, a fired MD with the entries that satisfied its LHS, or the
two entries an equality axiom combined — so the matrix is also the
derivation :func:`repro.core.explain.explain` reads.  The tests check the
fixpoint against the literal repeat-scan loop of Fig. 5 and an independent
union-find model of the axioms (``tests/core/closure_oracles.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .matrix import Entry, SimilarityMatrix
from .md import MatchingDependency, SimilarityAtom
from .schema import QualifiedAttribute, SchemaPair
from .similarity import EQUALITY, SimilarityOperator


@dataclass
class ClosureStats:
    """Bookkeeping produced by a closure computation."""

    mds_fired: int = 0
    entries_set: int = 0
    queue_pops: int = 0


class Justification(NamedTuple):
    """Why an entry of the closure holds: the one step that set it.

    ``kind`` is ``"premise"`` (an atom of LHS(φ)), ``"fired"`` (``rule``, an
    MD of normalized Σ, fired; ``parents`` holds the entry that satisfied
    each of its LHS conjuncts, in order) or ``"equality"`` (``parents`` is
    the entry being propagated and the entry the equality axioms combined
    it with).  Parents are always entries set earlier.
    """

    kind: str
    rule: Optional[MatchingDependency] = None
    parents: Tuple[Entry, ...] = ()


@dataclass(frozen=True)
class _Conjunct:
    """One indexed LHS conjunct of an MD in Σ."""

    md_index: int
    position: int
    operator: SimilarityOperator


class ClosureEngine:
    """Reusable ``MDClosure`` evaluator for a fixed Σ over a schema pair.

    Parameters
    ----------
    pair:
        The schema pair ``(R1, R2)``.
    sigma:
        The MDs of Σ.  They are normalized internally (one RHS pair each);
        generality is not lost (Lemmas 3.1, 3.3).

    >>> from repro.core.schema import RelationSchema, SchemaPair
    >>> from repro.core.md import MatchingDependency
    >>> pair = SchemaPair(RelationSchema("R", ["A", "B", "C"]),
    ...                   RelationSchema("R", ["A", "B", "C"]))
    >>> sigma = [MatchingDependency(pair, [("A", "A", "=")], [("B", "B")]),
    ...          MatchingDependency(pair, [("B", "B", "=")], [("C", "C")])]
    >>> phi = MatchingDependency(pair, [("A", "A", "=")], [("C", "C")])
    >>> ClosureEngine(pair, sigma).deduces(phi)   # Example 3.1 / Lemma 3.3
    True
    """

    def __init__(
        self, pair: SchemaPair, sigma: Iterable[MatchingDependency]
    ) -> None:
        self.pair = pair
        self._mds: List[MatchingDependency] = []
        for dependency in sigma:
            if dependency.pair != pair:
                raise ValueError(
                    f"MD {dependency} is defined over a different schema pair"
                )
            self._mds.extend(dependency.normalize())

        # Static structures shared by every closure query.
        self._lhs_sizes: List[int] = []
        self._rhs: List[Tuple[QualifiedAttribute, QualifiedAttribute]] = []
        self._triggers: Dict[
            Tuple[QualifiedAttribute, QualifiedAttribute], List[_Conjunct]
        ] = {}
        for index, dependency in enumerate(self._mds):
            self._lhs_sizes.append(len(dependency.lhs))
            rhs_atom = dependency.rhs[0]
            self._rhs.append(
                (pair.left_attr(rhs_atom.left), pair.right_attr(rhs_atom.right))
            )
            for position, atom in enumerate(dependency.lhs):
                key = (pair.left_attr(atom.left), pair.right_attr(atom.right))
                self._triggers.setdefault(key, []).append(
                    _Conjunct(index, position, atom.operator)
                )

    @property
    def normalized_mds(self) -> Tuple[MatchingDependency, ...]:
        """Σ in normal form, as the engine indexes it."""
        return tuple(self._mds)

    # ------------------------------------------------------------------
    # Closure computation
    # ------------------------------------------------------------------

    def closure(
        self, lhs: Sequence[SimilarityAtom]
    ) -> Tuple[SimilarityMatrix, ClosureStats]:
        """Compute the closure of Σ and the given LHS conjuncts.

        Returns the similarity matrix ``M`` — each entry set with its
        :class:`Justification`, in derivation order — and computation
        statistics.
        """
        matrix = SimilarityMatrix()
        stats = ClosureStats()
        remaining = list(self._lhs_sizes)
        # (md_index, position) -> the entry that satisfied that conjunct.
        satisfied: Dict[Tuple[int, int], Entry] = {}
        fired = [False] * len(self._mds)
        queue = deque()

        def assign(
            a: QualifiedAttribute,
            b: QualifiedAttribute,
            op: SimilarityOperator,
            kind: str,
            rule: Optional[MatchingDependency] = None,
            parents: Tuple[Entry, ...] = (),
        ) -> None:
            """The paper's AssignVal: set the entry unless redundant."""
            if matrix.get(a, b, EQUALITY):
                return  # reflexive, or = subsumes every operator
            if not op.is_equality and matrix.get(a, b, op):
                return
            matrix.set(a, b, op, Justification(kind, rule, parents))
            stats.entries_set += 1
            queue.append((a, b, op))

        def notify(entry: Entry) -> None:
            """Decrement waiting counts of conjuncts satisfied by the entry."""
            a, b, op = entry
            key = None
            if a.side == 0 and b.side == 1:
                key = (a, b)
            elif a.side == 1 and b.side == 0:
                key = (b, a)
            if key is None:
                return  # intra-relation entries never match an LHS conjunct
            for conjunct in self._triggers.get(key, ()):
                index = conjunct.md_index
                if (index, conjunct.position) in satisfied:
                    continue
                if not op.is_equality and op != conjunct.operator:
                    continue  # only the exact operator or = satisfies a test
                satisfied[index, conjunct.position] = entry
                remaining[index] -= 1
                if remaining[index] == 0 and not fired[index]:
                    fired[index] = True
                    stats.mds_fired += 1
                    rhs_left, rhs_right = self._rhs[index]
                    if matrix.get(rhs_left, rhs_right, EQUALITY):
                        continue  # RHS already identified (most firings): no parents to collect
                    parents = tuple([
                        satisfied[index, position]
                        for position in range(self._lhs_sizes[index])
                    ])
                    assign(
                        rhs_left, rhs_right, EQUALITY, "fired", self._mds[index], parents
                    )

        def propagate(entry: Entry) -> None:
            """Derive consequences of the new edge under the axioms.

            ``assign`` never sets an entry at the attribute whose edges are
            being iterated, so the live views are safe to walk.
            """
            a, b, op = entry
            # Equality substitution at both endpoints: z = a gives z op b,
            # and z = b gives a op z.
            for z, edge in matrix.edges(a, EQUALITY).items():
                assign(z, b, op, "equality", None, (entry, edge))
            for z, edge in matrix.edges(b, EQUALITY).items():
                assign(a, z, op, "equality", None, (entry, edge))
            if op.is_equality:
                # Equality transport: similarity edges move across the new
                # equality, in both directions (Lemma 3.4 interactions).
                for other_op, z in matrix.similarity_edges_at(a):
                    edge = matrix.entry(a, z, other_op)
                    assign(z, b, other_op, "equality", None, (entry, edge))
                for other_op, z in matrix.similarity_edges_at(b):
                    edge = matrix.entry(b, z, other_op)
                    assign(a, z, other_op, "equality", None, (entry, edge))

        for atom in lhs:
            assign(
                self.pair.left_attr(atom.left),
                self.pair.right_attr(atom.right),
                atom.operator,
                "premise",
            )
        while queue:
            entry = queue.popleft()
            stats.queue_pops += 1
            notify(entry)
            propagate(entry)
        return matrix, stats

    # ------------------------------------------------------------------
    # Deduction queries
    # ------------------------------------------------------------------

    def deduces(self, phi: MatchingDependency) -> bool:
        """Decide ``Σ ⊨m φ``.

        True iff every RHS pair of φ is in the closure of Σ and LHS(φ)
        with equality.
        """
        if phi.pair != self.pair:
            raise ValueError("phi is defined over a different schema pair")
        matrix, _ = self.closure(phi.lhs)
        return all(
            matrix.get(
                self.pair.left_attr(atom.left),
                self.pair.right_attr(atom.right),
                EQUALITY,
            )
            for atom in phi.rhs
        )


def deduces(
    pair: SchemaPair,
    sigma: Iterable[MatchingDependency],
    phi: MatchingDependency,
) -> bool:
    """One-shot convenience wrapper: ``Σ ⊨m φ``.

    Builds a fresh :class:`ClosureEngine`; when issuing many queries against
    the same Σ, construct the engine once instead.
    """
    return ClosureEngine(pair, sigma).deduces(phi)
