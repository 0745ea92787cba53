"""Unit tests for the similarity matrix and the union-find closure model."""

from closure_oracles import AxiomaticClosure

from repro.core.matrix import SimilarityMatrix
from repro.core.schema import LEFT, RIGHT, QualifiedAttribute
from repro.core.similarity import EQUALITY, SimilarityOperator

A = QualifiedAttribute(LEFT, "R", "A")
B = QualifiedAttribute(RIGHT, "S", "B")
C = QualifiedAttribute(LEFT, "R", "C")
D = QualifiedAttribute(RIGHT, "S", "D")
DL = SimilarityOperator("dl(0.8)")


class TestSimilarityMatrix:
    def test_set_and_get_symmetric(self):
        matrix = SimilarityMatrix()
        assert matrix.set(A, B, EQUALITY)
        assert matrix.get(A, B, EQUALITY)
        assert matrix.get(B, A, EQUALITY)

    def test_set_reports_novelty(self):
        matrix = SimilarityMatrix()
        assert matrix.set(A, B, DL)
        assert not matrix.set(A, B, DL)
        assert not matrix.set(B, A, DL)

    def test_reflexive_implicit(self):
        matrix = SimilarityMatrix()
        assert matrix.get(A, A, DL)
        assert not matrix.set(A, A, DL)

    def test_get_does_not_subsume(self):
        matrix = SimilarityMatrix()
        matrix.set(A, B, EQUALITY)
        assert not matrix.get(A, B, DL)

    def test_holds_subsumes_equality(self):
        matrix = SimilarityMatrix()
        matrix.set(A, B, EQUALITY)
        assert matrix.holds(A, B, DL)
        assert matrix.holds(A, B, EQUALITY)

    def test_holds_similarity_does_not_give_equality(self):
        matrix = SimilarityMatrix()
        matrix.set(A, B, DL)
        assert not matrix.holds(A, B, EQUALITY)

    def test_neighbours(self):
        matrix = SimilarityMatrix()
        matrix.set(A, B, EQUALITY)
        matrix.set(A, D, EQUALITY)
        assert matrix.neighbours(A, EQUALITY) == {B, D}
        assert matrix.neighbours(C, EQUALITY) == frozenset()

    def test_similarity_edges_at_excludes_equality(self):
        matrix = SimilarityMatrix()
        matrix.set(A, B, EQUALITY)
        matrix.set(A, C, DL)
        edges = list(matrix.similarity_edges_at(A))
        assert edges == [(DL, C)]

    def test_entries_iterates_each_once(self):
        matrix = SimilarityMatrix()
        matrix.set(A, B, EQUALITY)
        matrix.set(C, D, DL)
        entries = list(matrix.entries())
        assert len(entries) == 2
        assert matrix.entry_count == 2
        assert len(matrix) == 2


class TestAxiomaticClosure:
    def test_equality_transitive(self):
        closure = AxiomaticClosure()
        closure.add(A, B, EQUALITY)
        closure.add(B, C, EQUALITY)
        assert closure.holds(A, C, EQUALITY)

    def test_reflexive(self):
        closure = AxiomaticClosure()
        assert closure.holds(A, A, EQUALITY)
        assert closure.holds(A, A, DL)

    def test_equality_subsumes_similarity(self):
        closure = AxiomaticClosure()
        closure.add(A, B, EQUALITY)
        assert closure.holds(A, B, DL)

    def test_similarity_not_transitive(self):
        closure = AxiomaticClosure()
        closure.add(A, B, DL)
        closure.add(B, C, DL)
        assert closure.holds(A, B, DL)
        assert not closure.holds(A, C, DL)

    def test_similarity_transported_across_equality(self):
        # x ≈ y ∧ y = z ⟹ x ≈ z
        closure = AxiomaticClosure()
        closure.add(A, B, DL)
        closure.add(B, C, EQUALITY)
        assert closure.holds(A, C, DL)

    def test_transport_when_merge_happens_later(self):
        closure = AxiomaticClosure()
        closure.add(A, B, DL)       # first the similarity edge
        closure.add(B, D, EQUALITY)  # then the class of B grows
        closure.add(D, C, EQUALITY)
        assert closure.holds(A, C, DL)

    def test_similarity_does_not_imply_equality(self):
        closure = AxiomaticClosure()
        closure.add(A, B, DL)
        assert not closure.holds(A, B, EQUALITY)

    def test_equivalence_classes(self):
        closure = AxiomaticClosure()
        closure.add(A, B, EQUALITY)
        closure.add(C, D, DL)
        classes = {frozenset(members) for members in closure.equivalence_classes()}
        assert frozenset({A, B}) in classes
        assert frozenset({C}) in classes
        assert frozenset({D}) in classes
