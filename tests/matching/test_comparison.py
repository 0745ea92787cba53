"""Unit tests for comparison vectors / specs."""

import pytest

from repro.core.rck import RelativeKey
from repro.matching.comparison import ComparisonSpec, equality_spec, union_of_rcks
from repro.metrics.registry import default_registry


class CountingRegistry:
    """Wraps a registry, counting ``resolve`` calls."""

    def __init__(self):
        self._inner = default_registry()
        self.resolve_calls = 0

    def resolve(self, operator_name):
        self.resolve_calls += 1
        return self._inner.resolve(operator_name)


class TestComparisonSpec:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ComparisonSpec(())

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ComparisonSpec((("a", "a", "="), ("a", "a", "=")))

    def test_compare_vector(self, fig1):
        _, credit, billing = fig1
        spec = ComparisonSpec(
            (("LN", "LN", "="), ("FN", "FN", "dl(0.8)"), ("email", "email", "="))
        )
        vector = spec.compare(credit[0], billing[0])  # t1 vs t3
        assert vector == (True, True, False)

    def test_attribute_pairs(self):
        spec = ComparisonSpec((("tel", "phn", "="),))
        assert spec.attribute_pairs() == (("tel", "phn"),)

    def test_metrics_resolved_once_at_construction(self, fig1):
        """Regression: evaluation must never re-resolve operator names.

        The spec resolves its predicates exactly once per feature when
        built; any number of ``compare`` calls keeps the lookup count
        flat.
        """
        _, credit, billing = fig1
        registry = CountingRegistry()
        spec = ComparisonSpec(
            (
                ("LN", "LN", "="),
                ("FN", "FN", "dl(0.8)"),
                ("email", "email", "="),
            ),
            registry=registry,
        )
        assert registry.resolve_calls == 3
        for _ in range(10):
            spec.compare(credit[0], billing[0])
        assert registry.resolve_calls == 3

    def test_explicit_foreign_registry_still_honored(self, fig1):
        """Passing a different registry at call time resolves through it."""
        _, credit, billing = fig1
        spec = ComparisonSpec((("LN", "LN", "="),))
        other = CountingRegistry()
        assert spec.compare(credit[0], billing[0], other) == (True,)
        assert other.resolve_calls == 1

    def test_unknown_operator_deferred_to_call_time(self, fig1):
        """An operator the bound registry lacks must not break construction.

        Custom-registry metrics are supplied at evaluation time
        (Fellegi–Sunter); the spec resolves them lazily through
        whichever registry the call provides.
        """
        _, credit, billing = fig1
        spec = ComparisonSpec((("FN", "FN", "nope(0.5)"),))
        with pytest.raises(KeyError, match="unknown metric"):
            spec.compare(credit[0], billing[0])

        class NopeRegistry:
            def resolve(self, operator_name):
                return lambda left, right: True

        assert spec.compare(credit[0], billing[0], NopeRegistry()) == (True,)


class TestSpecBuilders:
    def test_union_dedups_by_pair_prefers_similarity(self, target):
        first = RelativeKey.from_triples(
            target, [("FN", "FN", "="), ("tel", "phn", "=")]
        )
        second = RelativeKey.from_triples(
            target, [("FN", "FN", "dl(0.8)"), ("email", "email", "=")]
        )
        spec = union_of_rcks([first, second])
        by_pair = {
            (left, right): op for left, right, op in spec.features
        }
        assert by_pair[("FN", "FN")] == "dl(0.8)"  # similarity wins
        assert len(spec) == 3

    def test_union_preserves_first_key_order(self, target):
        first = RelativeKey.from_triples(target, [("tel", "phn", "=")])
        second = RelativeKey.from_triples(target, [("email", "email", "=")])
        spec = union_of_rcks([first, second])
        assert spec.features[0][0] == "tel"

    def test_union_requires_keys(self):
        with pytest.raises(ValueError):
            union_of_rcks([])

    def test_equality_spec(self):
        spec = equality_spec([("FN", "FN"), ("LN", "LN")])
        assert all(op == "=" for _, _, op in spec.features)
        assert len(spec) == 2
