"""Observability through the façade: spans and stats.

The acceptance criteria for ``repro.obs`` live here: a traced
:class:`~repro.api.Workspace` match records the whole pipeline
(compile → blocking → chase rounds), an untraced run records exactly
nothing and decides exactly the same matches, and ``MatchReport.stats``
carries every ``PlanStats`` key.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.api import Workspace
from repro.core.schema import LEFT, RIGHT
from repro.datagen.generator import generate_dataset
from repro.datagen.schemas import extended_mds
from repro.experiments.harness import resolution_spec_document
from repro.obs import NULL_TRACER, read_trace, validate_trace
from repro.plan.compile import PlanStats


def _document(dataset, traced=True, **blocking):
    document = resolution_spec_document(
        dataset.pair,
        dataset.target,
        extended_mds(dataset.pair),
        blocking={"backend": "hash", "key_length": 2, **blocking},
        execution={"mode": "enforce"},
    )
    if traced:
        document["observability"] = {"enabled": True}
    return document


def _all_spans(tracer):
    """Every recorded span, preorder across the root forest."""
    return [
        span for root in tracer.spans() for span, _ in root.walk()
    ]


def _named(tracer, name):
    return [span for span in _all_spans(tracer) if span.name == name]


class TestTracedMatch:
    def test_traced_match_covers_the_whole_pipeline(self):
        dataset = generate_dataset(60, seed=3)
        workspace = Workspace.from_dict(_document(dataset))
        report = workspace.match(dataset.credit, dataset.billing)
        assert report.matches  # a trivial run would prove nothing

        names = {span.name for span in _all_spans(workspace.tracer)}
        # Compile stage (one span tree per workspace lifetime)...
        assert {"compile", "parse-mds", "deduce-rcks",
                "build-blocking", "compile-plan"} <= names
        # ...and the enforcement stage, down to individual chase rounds.
        assert {"enforce", "blocking", "chase", "chase-round",
                "provenance"} <= names

        # Rounds nest under their chase, and their count agrees with the
        # span attribute the chase recorded.
        (chase,) = _named(workspace.tracer, "chase")
        rounds = [c for c in chase.children if c.name == "chase-round"]
        assert len(rounds) == chase.attrs["rounds"] > 0
        # Every round says how it selected: rules served by a hash join
        # (and the probes those made) against pairs read by scanning.
        for span in rounds:
            assert {"round", "joined", "join_probes", "scanned",
                    "merges"} <= set(span.attrs)
            assert 0 <= span.attrs["joined"] <= len(workspace.plan.rules)
            assert (span.attrs["join_probes"] > 0) == (span.attrs["joined"] > 0)
        # Stability is checked once per chase, under whoever asked: here
        # the provenance read-off, after the chase span closed (which is
        # why that span does not know ``stable``).
        (provenance,) = _named(workspace.tracer, "provenance")
        (check,) = _named(workspace.tracer, "stability-check")
        assert check in provenance.children and "stable" not in chase.attrs
        assert all(span.duration >= 0.0 for span in _all_spans(workspace.tracer))

        # The registry's view of the same run lands in the report.
        histograms = report.stats["histograms"]
        for name in ("chase.rounds", "chase.seconds", "match.seconds"):
            assert histograms[name]["count"] == 1

    def test_tracing_off_is_silent_and_equivalent(self):
        """The differential guarantee: observing a run never alters it."""
        dataset = generate_dataset(60, seed=11)
        untraced = Workspace.from_dict(_document(dataset, traced=False))
        traced = Workspace.from_dict(_document(dataset, traced=True))

        assert untraced.tracer is NULL_TRACER
        plain = untraced.match(dataset.credit, dataset.billing)
        observed = traced.match(dataset.credit, dataset.billing)

        assert untraced.tracer.event_count() == 0
        assert traced.tracer.event_count() > 0
        assert plain.matches == observed.matches
        assert plain.clusters == observed.clusters
        assert plain.provenance == observed.provenance
        # The observability section is excluded from the fingerprint.
        assert plain.fingerprint == observed.fingerprint


class TestStatsBackwardCompat:
    def test_every_planstats_key_survives(self):
        """Consumers of ``report.stats`` keep working: the surviving keys
        are listed, so dropping one (the frozen benchmark reads
        ``groups_built`` / ``factorisation_ratio`` unconditionally) or
        growing one back is a visible edit here."""
        dataset = generate_dataset(60, seed=3)
        workspace = Workspace.from_dict(_document(dataset, traced=False))
        report = workspace.match(dataset.credit, dataset.billing)

        surviving = [
            "compiles", "metric_evaluations", "cache_hits", "pairs_compared",
            "rule_applications", "chase_rounds", "enforcements",
            "rounds_exhausted", "groups_built", "factorisation_ratio",
        ]
        assert [spec.name for spec in fields(PlanStats)] == surviving
        for name in surviving:
            assert name in report.stats
        # The counters stay plain ints at the top level.
        assert report.stats["compiles"] == 1
        assert report.stats["enforcements"] == 1
        assert isinstance(report.stats["pairs_compared"], int)
        # The registry's richer sections ride along without colliding.
        assert isinstance(report.stats["gauges"], dict)
        assert report.stats["histograms"]["match.seconds"]["count"] == 1
        # And the rendering is JSON-clean end to end.
        import json

        json.dumps(report.to_dict())


class TestWriteTrace:
    def test_write_trace_to_explicit_path(self, tmp_path):
        dataset = generate_dataset(60, seed=3)
        workspace = Workspace.from_dict(_document(dataset))
        workspace.match(dataset.credit, dataset.billing)
        path = tmp_path / "trace.json"
        document = workspace.write_trace(path, command="test-run")
        assert validate_trace(document) == []
        reread = read_trace(path)
        assert validate_trace(reread) == []
        manifest = reread["manifest"]
        assert manifest["spec_fingerprint"] == workspace.fingerprint
        assert manifest["mode"] == "enforce"
        assert manifest["policy"] == workspace.spec.policy
        assert manifest["command"] == "test-run"

    def test_spec_trace_path_is_the_default(self, tmp_path):
        dataset = generate_dataset(60, seed=3)
        document = _document(dataset)
        target = tmp_path / "spec-trace.json"
        document["observability"] = {"enabled": True, "trace": str(target)}
        workspace = Workspace.from_dict(document)
        workspace.match(dataset.credit, dataset.billing)
        workspace.write_trace()
        assert validate_trace(read_trace(target)) == []

    def test_no_path_anywhere_is_an_error(self):
        dataset = generate_dataset(30, seed=3)
        workspace = Workspace.from_dict(_document(dataset))
        with pytest.raises(ValueError, match="no trace path"):
            workspace.write_trace()


class TestEngineStreamTracing:
    def test_ingest_spans_and_metrics(self):
        dataset = generate_dataset(40, seed=3)
        workspace = Workspace.from_dict(_document(dataset))
        matcher = workspace.stream()
        ingested = 0
        for side, relation in ((LEFT, dataset.credit), (RIGHT, dataset.billing)):
            for row in list(relation)[:10]:
                matcher.ingest(side, row.values())
                ingested += 1

        spans = _named(workspace.tracer, "ingest")
        assert len(spans) == ingested
        for span in spans:
            assert span.attrs["side"] in (LEFT, RIGHT)
            assert "tid" in span.attrs
            # ``chases`` = the delta chases this ingest ran (its children).
            assert span.attrs["chases"] == sum(
                child.name == "chase" for child in span.children
            )
        assert sum(span.attrs["chases"] for span in spans) == sum(
            count
            for name, count in workspace.metrics.counters.items()
            if name.startswith("engine.chases.") and ".skipped." not in name
        ) > 0
        # The engine reads matches off its delta chases and nothing else:
        # none of them runs a stability pass.
        assert _named(workspace.tracer, "chase")
        assert _named(workspace.tracer, "stability-check") == []

        rendered = workspace.metrics.as_dict()
        assert rendered["counters"]["engine.ingests"] == ingested
        assert rendered["histograms"]["engine.ingest_seconds"]["count"] == ingested
        # Store growth gauges track the store itself (last write wins).
        assert rendered["gauges"]["engine.left_rows"] == len(matcher.store.left)
        assert rendered["gauges"]["engine.right_rows"] == len(matcher.store.right)
        assert rendered["gauges"]["engine.left_rows"] > 0

    def test_stream_shares_the_workspace_tracer(self):
        dataset = generate_dataset(30, seed=3)
        workspace = Workspace.from_dict(_document(dataset))
        matcher = workspace.stream()
        assert matcher.tracer is workspace.tracer
        assert matcher.metrics is workspace.metrics
