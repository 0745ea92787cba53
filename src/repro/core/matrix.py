"""The similarity matrix ``M`` of Section 4.

Algorithm ``MDClosure`` stores the closure of Σ and LHS(φ) in an
``h × h × p`` array ``M`` indexed by two qualified attributes and a
similarity operator: ``M(R[A], R'[B], ≈) = 1`` iff
``Σ ⊨m LHS(φ) → R[A] ≈ R'[B]``.  Entries are symmetric in the two
attributes, and both intra-relation (``R = R'``) and cross-relation entries
occur — Lemma 3.4 shows intra-relation facts arise from the interaction of
the matching operator with equality and similarity.

:class:`SimilarityMatrix` implements the array as sparse adjacency maps, so
neighbour scans (the heart of ``Propagate``/``Infer``) are proportional to
the number of set entries rather than ``h``.  Each entry is stored once, as
the triple it was first set with, next to the justification its setter
gave; entries and neighbours iterate in the order they were set, so a
closure's derivation order does not depend on the interpreter's hash seed.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, KeysView, Mapping, Optional, Tuple

from .schema import QualifiedAttribute
from .similarity import EQUALITY, SimilarityOperator

#: One entry of ``M``: ``(a, b, op)`` in the orientation it was first set.
Entry = Tuple[QualifiedAttribute, QualifiedAttribute, SimilarityOperator]

_NO_EDGES: Mapping[QualifiedAttribute, Entry] = {}


class SimilarityMatrix:
    """Sparse, symmetric storage for the closure array ``M``.

    Entries are triples ``(a, b, op)`` with ``a``, ``b`` qualified
    attributes and ``op`` a similarity operator.  Reflexive facts
    (``a op a``) are implicitly true and never stored.
    """

    def __init__(self) -> None:
        # op -> attribute -> neighbour under that operator -> stored entry.
        self._links: Dict[
            SimilarityOperator, Dict[QualifiedAttribute, Dict[QualifiedAttribute, Entry]]
        ] = {}
        # Every stored entry, in the order set, with its justification.
        self._why: Dict[Entry, Any] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def set(
        self,
        a: QualifiedAttribute,
        b: QualifiedAttribute,
        op: SimilarityOperator,
        why: Any = None,
    ) -> bool:
        """Set ``M(a, b, op) = M(b, a, op) = 1``, justified by ``why``.

        Returns ``True`` when the entry was newly set, ``False`` when it was
        already present or trivially reflexive (a present entry keeps its
        first justification).  This is the storage half of the paper's
        ``AssignVal``; the equality-subsumption check (skip setting ``≈``
        when ``=`` already holds) is done by the caller so the matrix itself
        stays a dumb array.
        """
        if a == b:
            return False
        by_attr = self._links.setdefault(op, {})
        neighbours = by_attr.setdefault(a, {})
        if b in neighbours:
            return False
        entry = (a, b, op)
        neighbours[b] = entry
        by_attr.setdefault(b, {})[a] = entry
        self._why[entry] = why
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def get(
        self,
        a: QualifiedAttribute,
        b: QualifiedAttribute,
        op: SimilarityOperator,
    ) -> bool:
        """Raw array lookup: is the entry ``(a, b, op)`` set?

        Reflexive pairs are always true.  No equality subsumption — use
        :meth:`holds` for the axiom-aware query.
        """
        if a == b:
            return True
        by_attr = self._links.get(op)
        if by_attr is None:
            return False
        neighbours = by_attr.get(a)
        return neighbours is not None and b in neighbours

    def holds(
        self,
        a: QualifiedAttribute,
        b: QualifiedAttribute,
        op: SimilarityOperator,
    ) -> bool:
        """Axiom-aware query: ``(a, b, op)`` set, or subsumed by equality."""
        if self.get(a, b, op):
            return True
        if not op.is_equality:
            return self.get(a, b, EQUALITY)
        return False

    def entry(
        self,
        a: QualifiedAttribute,
        b: QualifiedAttribute,
        op: SimilarityOperator,
    ) -> Optional[Entry]:
        """The stored entry between ``a`` and ``b`` under ``op``, or ``None``."""
        return self.edges(a, op).get(b)

    def why(self, entry: Entry) -> Any:
        """The justification ``entry`` was set with."""
        return self._why[entry]

    def edges(
        self, a: QualifiedAttribute, op: SimilarityOperator
    ) -> Mapping[QualifiedAttribute, Entry]:
        """Each ``b`` with ``(a, b, op)`` set, mapped to its stored entry.

        A live view in the order set: setting an entry at ``a`` under
        ``op`` while iterating it is an error.
        """
        return self._links.get(op, _NO_EDGES).get(a, _NO_EDGES)

    def neighbours(
        self, a: QualifiedAttribute, op: SimilarityOperator
    ) -> KeysView[QualifiedAttribute]:
        """All ``b`` with the entry ``(a, b, op)`` set (a live view, as :meth:`edges`)."""
        return self.edges(a, op).keys()

    def similarity_edges_at(
        self, a: QualifiedAttribute
    ) -> Iterator[Tuple[SimilarityOperator, QualifiedAttribute]]:
        """Iterate ``(op, b)`` over all non-equality entries touching ``a``."""
        for op, by_attr in self._links.items():
            if op.is_equality:
                continue
            for b in by_attr.get(a, ()):
                yield op, b

    def entries(self) -> Iterator[Entry]:
        """Iterate every set entry once, in the order set."""
        return iter(self._why)

    @property
    def entry_count(self) -> int:
        """Number of distinct symmetric entries set so far."""
        return len(self._why)

    def __len__(self) -> int:
        return len(self._why)
