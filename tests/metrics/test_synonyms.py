"""Tests for synonym tables and synonymized metrics."""

import pytest

from repro.experiments.extensions.synonyms import (
    SynonymTable,
    SynonymizedMetric,
    common_nickname_synonyms,
    merged_tables,
    register_synonym_metrics,
    us_address_synonyms,
)
from repro.metrics.damerau_levenshtein import DamerauLevenshtein
from repro.metrics.registry import default_registry


class TestSynonymTable:
    def test_token_replacement(self):
        table = SynonymTable({"St": "Street"})
        assert table.normalize("10 Oak St") == "10 Oak Street"

    def test_value_replacement(self):
        table = us_address_synonyms()
        assert table.normalize("USA") == "United States"
        assert table.normalize("u.s.a.") == "United States"

    def test_case_insensitive_lookup(self):
        table = SynonymTable({"St": "Street"})
        assert table.canonical_token("st") == "Street"
        assert table.canonical_token("ST") == "Street"

    def test_unmapped_token_unchanged(self):
        table = SynonymTable({"St": "Street"})
        assert table.canonical_token("Oak") == "Oak"

    def test_chain_resolution(self):
        table = SynonymTable({"Wm": "Bill", "Bill": "William"})
        assert table.canonical_token("Wm") == "William"

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            SynonymTable({"a": "b", "b": "a"})

    def test_self_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            SynonymTable({"a": "A", "A": "a"})

    def test_no_change_preserves_original(self):
        table = SynonymTable({"St": "Street"})
        assert table.normalize("10 Oak Road, NJ") == "10 Oak Road, NJ"

    def test_len(self):
        assert len(SynonymTable({"a": "x"}, {"b": "y"})) == 2

    def test_merged_tables(self):
        merged = merged_tables(
            [us_address_synonyms(), common_nickname_synonyms()]
        )
        assert merged.canonical_token("St") == "Street"
        assert merged.canonical_token("Bob") == "Robert"


class TestSynonymizedMetric:
    @pytest.fixture
    def metric(self):
        return SynonymizedMetric(DamerauLevenshtein(), us_address_synonyms())

    def test_name(self, metric):
        assert metric.name == "syn_dl"

    def test_synonyms_become_identical(self, metric):
        assert metric.similarity("10 Oak St", "10 Oak Street") == 1.0
        assert metric.similar("10 Oak St", "10 Oak Street", 1.0)

    def test_base_similarity_after_normalization(self, metric):
        # One typo after normalization: high but not perfect similarity.
        assert 0.8 < metric.similarity("10 Oak St", "10 Oak Streex") < 1.0

    def test_axioms_preserved(self, metric):
        operator = metric.thresholded(0.8)
        assert operator("anything", "anything")  # reflexive
        assert operator("10 Oak St", "10 Oak Street") == operator(
            "10 Oak Street", "10 Oak St"
        )  # symmetric

    def test_nickname_matching(self):
        metric = SynonymizedMetric(
            DamerauLevenshtein(), common_nickname_synonyms()
        )
        assert metric.similar("Bill", "William", 1.0)
        assert metric.similar("Bob", "Robert", 1.0)
        assert not metric.similar("Bill", "Robert", 0.8)


class TestRegistration:
    def test_registered_operators_resolve(self):
        registry = default_registry()
        names = register_synonym_metrics(registry, us_address_synonyms())
        assert "syn_dl" in names
        operator = registry.resolve("syn_dl(0.9)")
        assert operator("10 Oak St", "10 Oak Street")

    def test_synonym_operator_usable_in_md(self, pair):
        """The extension's point: synonym operators inside MDs."""
        from repro.core.md import MatchingDependency
        from repro.core.semantics import InstancePair, lhs_matches
        from repro.datagen.generator import figure1_instances
        from repro.metrics.registry import default_registry

        registry = default_registry()
        register_synonym_metrics(registry, us_address_synonyms())
        dependency = MatchingDependency(
            pair,
            [("addr", "post", "syn_dl(0.9)")],
            [("FN", "FN")],
        )
        _, credit, billing = figure1_instances()
        instance = InstancePair(pair, credit, billing)
        assert lhs_matches(dependency, instance, 0, 0, registry)
