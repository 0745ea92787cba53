"""Two independent models of the ``MDClosure`` fixpoint, kept as test oracles.

The library has one deducer, :class:`repro.core.closure.ClosureEngine`.
These models compute the same facts by other routes, and the tests
compare the engine against them:

* :func:`md_closure_paper_loop` — the literal repeat-until-no-change scan
  of Fig. 5 (``O(n²)`` in the size of Σ): full rescans of Σ instead of
  conjunct-indexed wake-ups.
* :class:`AxiomaticClosure` — the generic axioms of Section 2.1 as a
  union-find: ``=`` edges form equivalence classes, a ``≈`` edge relates
  two classes (because ``x ≈ y ∧ y = z ⟹ x ≈ z``), and ``a ≈ b`` holds iff
  ``class(a) = class(b)`` or the classes are ``≈``-linked.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set

from repro.core.matrix import SimilarityMatrix
from repro.core.md import MatchingDependency, SimilarityAtom
from repro.core.schema import QualifiedAttribute, SchemaPair
from repro.core.similarity import EQUALITY, SimilarityOperator


def md_closure_paper_loop(
    pair: SchemaPair,
    sigma: Iterable[MatchingDependency],
    lhs: Sequence[SimilarityAtom],
) -> SimilarityMatrix:
    """The literal repeat-scan loop of Fig. 5 (``O(n²)``), for cross-checks.

    Semantics are identical to :meth:`ClosureEngine.closure`; only the MD
    application strategy differs (full rescans of Σ until no change instead
    of conjunct-indexed wake-ups).
    """
    normalized: List[MatchingDependency] = []
    for dependency in sigma:
        normalized.extend(dependency.normalize())

    matrix = SimilarityMatrix()
    queue = deque()

    def assign(a, b, op) -> None:
        if a == b or matrix.get(a, b, EQUALITY):
            return
        if not op.is_equality and matrix.get(a, b, op):
            return
        matrix.set(a, b, op)
        queue.append((a, b, op))

    def drain() -> None:
        while queue:
            a, b, op = queue.popleft()
            for z in matrix.neighbours(a, EQUALITY):
                assign(z, b, op)
            for z in matrix.neighbours(b, EQUALITY):
                assign(a, z, op)
            if op.is_equality:
                for other_op, z in list(matrix.similarity_edges_at(a)):
                    assign(z, b, other_op)
                for other_op, z in list(matrix.similarity_edges_at(b)):
                    assign(a, z, other_op)

    for atom in lhs:
        assign(pair.left_attr(atom.left), pair.right_attr(atom.right), atom.operator)
    drain()

    pending = list(normalized)
    changed = True
    while changed:
        changed = False
        still_pending = []
        for dependency in pending:
            lhs_matched = all(
                matrix.holds(
                    pair.left_attr(atom.left),
                    pair.right_attr(atom.right),
                    atom.operator,
                )
                for atom in dependency.lhs
            )
            if not lhs_matched:
                still_pending.append(dependency)
                continue
            rhs_atom = dependency.rhs[0]
            assign(
                pair.left_attr(rhs_atom.left),
                pair.right_attr(rhs_atom.right),
                EQUALITY,
            )
            drain()
            changed = True
        pending = still_pending
    return matrix


class AxiomaticClosure:
    """Union-find model of the generic similarity axioms.

    Used as an oracle to validate :class:`SimilarityMatrix`-based closures:
    both must derive exactly the same facts from the same base edges.
    """

    def __init__(self) -> None:
        self._parent: Dict[QualifiedAttribute, QualifiedAttribute] = {}
        self._rank: Dict[QualifiedAttribute, int] = {}
        # op -> set of frozensets {root_a, root_b} linking two classes.
        self._sim: Dict[SimilarityOperator, Set[FrozenSet[QualifiedAttribute]]] = {}

    # -- union-find ----------------------------------------------------

    def _find(self, a: QualifiedAttribute) -> QualifiedAttribute:
        parent = self._parent
        if a not in parent:
            parent[a] = a
            self._rank[a] = 0
            return a
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:  # path compression
            parent[a], a = root, parent[a]
        return root

    def _union(self, a: QualifiedAttribute, b: QualifiedAttribute) -> None:
        root_a, root_b = self._find(a), self._find(b)
        if root_a == root_b:
            return
        if self._rank[root_a] < self._rank[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        if self._rank[root_a] == self._rank[root_b]:
            self._rank[root_a] += 1
        # Re-root similarity links that mentioned the absorbed root.
        for links in self._sim.values():
            stale = [link for link in links if root_b in link]
            for link in stale:
                links.discard(link)
                others = [attr for attr in link if attr != root_b]
                other = others[0] if others else root_a
                new_other = self._find(other)
                if new_other != root_a:
                    links.add(frozenset((root_a, new_other)))

    # -- public API ------------------------------------------------------

    def add(
        self,
        a: QualifiedAttribute,
        b: QualifiedAttribute,
        op: SimilarityOperator,
    ) -> None:
        """Assert the base fact ``a op b``."""
        if op.is_equality:
            self._union(a, b)
        else:
            root_a, root_b = self._find(a), self._find(b)
            if root_a != root_b:
                self._sim.setdefault(op, set()).add(frozenset((root_a, root_b)))

    def holds(
        self,
        a: QualifiedAttribute,
        b: QualifiedAttribute,
        op: SimilarityOperator,
    ) -> bool:
        """Is ``a op b`` derivable from the asserted facts and the axioms?"""
        root_a, root_b = self._find(a), self._find(b)
        if root_a == root_b:
            return True  # reflexivity / equality, which every op subsumes
        if op.is_equality:
            return False
        links = self._sim.get(op)
        return links is not None and frozenset((root_a, root_b)) in links

    def equivalence_classes(self) -> Iterable[FrozenSet[QualifiedAttribute]]:
        """The equality classes over every attribute seen so far."""
        classes: Dict[QualifiedAttribute, Set[QualifiedAttribute]] = {}
        for attr in list(self._parent):
            classes.setdefault(self._find(attr), set()).add(attr)
        return [frozenset(members) for members in classes.values()]
