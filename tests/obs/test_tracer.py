"""Tracer unit tests: nesting, the null tracer, serialization, export."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    NULL_TRACER,
    Tracer,
    read_trace,
    run_manifest,
    summarize_trace,
    trace_document,
    validate_trace,
    write_trace,
)
from repro.obs.trace import _NULL_SPAN


class TestSpanNesting:
    def test_roots_and_children(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                inner.add("work", 2)
            with tracer.span("sibling"):
                pass
        assert [span.name for span in tracer.spans()] == ["outer"]
        assert [child.name for child in outer.children] == ["inner", "sibling"]
        assert outer.children[0].attrs["work"] == 2
        assert tracer.event_count() == 3

    def test_durations_are_monotonic_and_nested(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.duration >= 0.0
        assert outer.duration >= inner.duration
        assert inner.start >= outer.start

    def test_attrs_set_and_add(self):
        tracer = Tracer()
        with tracer.span("span", preset=7) as span:
            span.set("note", "value")
            span.add("counter")
            span.add("counter", 3)
        assert span.attrs == {"preset": 7, "note": "value", "counter": 4}

    def test_exception_unwinding_keeps_the_stack_sound(self):
        """Manually-entered child spans leaked by a raise are closed."""
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                tracer.span("leaked").__enter__()
                raise RuntimeError("boom")
        (outer,) = tracer.spans()
        assert [child.name for child in outer.children] == ["leaked"]
        # The tracer is reusable afterwards.
        with tracer.span("after"):
            pass
        assert [span.name for span in tracer.spans()] == ["outer", "after"]

    def test_walk_preorder(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        (root,) = tracer.spans()
        assert [(span.name, depth) for span, depth in root.walk()] == [
            ("a", 0), ("b", 1), ("c", 2), ("d", 1)
        ]


class TestNullTracer:
    def test_records_nothing(self):
        with NULL_TRACER.span("anything", attr=1) as span:
            span.add("counter")
            span.set("key", "value")
        assert NULL_TRACER.spans() == ()
        assert NULL_TRACER.event_count() == 0
        assert not NULL_TRACER.enabled

    def test_shared_singleton_span(self):
        """Every call returns the one module-level span: no allocation."""
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")
        assert NULL_TRACER.span("a") is _NULL_SPAN


class TestSerialization:
    def _tree(self):
        tracer = Tracer()
        with tracer.span("root", pairs=4) as root:
            with tracer.span("child") as child:
                child.add("merges", 2)
        return root

    def test_to_dict_carries_the_subtree(self):
        root = self._tree()
        document = root.to_dict()
        assert document["name"] == "root"
        assert document["attrs"] == {"pairs": 4}
        assert document["start"] == root.start
        assert document["duration"] == root.duration
        (child,) = document["children"]
        assert child["name"] == "child"
        assert child["attrs"] == {"merges": 2}

    def test_to_dict_is_json_and_pickle_safe(self):
        import pickle

        document = self._tree().to_dict()
        assert json.loads(json.dumps(document)) == document
        assert pickle.loads(pickle.dumps(document)) == document


class TestExport:
    def _traced_run(self):
        tracer = Tracer()
        with tracer.span("enforce", candidates=8):
            with tracer.span("chase", rounds=2):
                pass
        return tracer

    def test_chrome_document_shape(self):
        tracer = self._traced_run()
        metrics = MetricsRegistry()
        metrics.observe("chase.seconds", 0.25)
        document = trace_document(
            tracer, manifest=run_manifest(spec_fingerprint="abc"), metrics=metrics
        )
        assert validate_trace(document) == []
        spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
        names = {event["name"] for event in spans}
        assert names == {"enforce", "chase"}
        # Every span renders on the one thread row, named for the viewer.
        assert {event["tid"] for event in spans} == {0}
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in document["traceEvents"]
            if e.get("ph") == "M"
        }
        assert thread_names == {0: "main"}

    def test_write_read_round_trip(self, tmp_path):
        tracer = self._traced_run()
        path = tmp_path / "trace.json"
        written = write_trace(
            tracer, path, manifest=run_manifest(spec_fingerprint="abc")
        )
        document = read_trace(path)
        assert validate_trace(document) == []
        assert document["manifest"]["spec_fingerprint"] == "abc"
        want = sorted(
            (e["name"], e["ts"])
            for e in written["traceEvents"]
            if e["ph"] == "X"
        )
        got = sorted(
            (e["name"], e["ts"])
            for e in document["traceEvents"]
            if e.get("ph") == "X"
        )
        assert got == want

    def test_validate_flags_problems(self):
        assert validate_trace([]) != []
        assert "manifest" in ";".join(validate_trace({"traceEvents": []}))
        missing_fp = validate_trace(
            {"manifest": {}, "traceEvents": [{"name": "x"}]}
        )
        assert any("spec_fingerprint" in problem for problem in missing_fp)

    def test_summarize_aggregates_by_name(self):
        tracer = Tracer()
        for round_ in range(3):
            with tracer.span("chase-round", round=round_) as span:
                span.set("joined", 2 - round_)
                span.set("join_probes", 100 * (2 - round_))
                span.set("scanned", 7 * round_)
                span.set("union_attempts", 4 * round_)
                span.set("merges", 5 * round_)
                with tracer.span("resolve-merged") as resolve:
                    resolve.set("classes", round_)
                    resolve.set("uniform", 10)
        for read, fresh in ((False, 5), (True, 8)):
            with tracer.span("stability-check") as span:
                span.set("fresh", fresh)
                span.set("reevaluated", 1)
                if read:
                    span.set("rhs_tested", 9)
        metrics = MetricsRegistry()
        metrics.observe("chase.rounds", 3)
        document = trace_document(
            tracer, manifest=run_manifest(spec_fingerprint="abc"), metrics=metrics
        )
        text = summarize_trace(document)
        assert "spec_fingerprint=abc" in text
        row = next(line for line in text.splitlines() if "chase-round" in line)
        assert " 3 " in row
        assert "chase.rounds" in text
        assert (
            "selection over 3 chase round(s): 3 rule(s) joined (300 probes), "
            "21 pair(s) scanned"
        ) in text
        assert (
            "unions over 3 chase round(s): 12 group union(s) attempted, "
            "15 cell merge(s)"
        ) in text
        assert (
            "resolve-merged over 3 round(s): 3 class(es) resolved, "
            "30 uniform skipped"
        ) in text
        # Only the check whose ``stable`` was read ran the RHS test.
        assert (
            "stability over 2 check(s): 13 fired pair(s) fresh, 2 re-evaluated; "
            "RHS test run in 1 (9 pair(s))"
        ) in text

    def test_summarize_names_the_phase_the_peak_was_reached_in(self):
        """Peak RSS only rises: the first phase, in time order, to close
        at the highest reading is the one the peak was reached in."""
        tracer = Tracer()
        for name, peak in (("enforce", 50.314), ("cluster", 53.3), ("late", 53.3)):
            with tracer.span(name) as span:
                span.set("peak_rss_mb", peak)
        with tracer.span("untouched"):
            pass
        text = summarize_trace(trace_document(tracer, manifest=run_manifest()))
        assert (
            "peak RSS at close: enforce 50.31 MB, cluster 53.30 MB, late 53.30 MB "
            "(the peak was reached by the close of cluster)"
        ) in text.splitlines()
        assert "peak RSS" not in summarize_trace(
            trace_document(Tracer(), manifest=run_manifest())
        )
