"""CLI observability: ``--trace`` on match/ingest, ``repro trace``, warnings.

End-to-end through :func:`repro.cli.main`, the way a user runs it: a
traced ``repro match`` writes a Chrome-loadable trace file whose
manifest pins the spec fingerprint and command line, ``repro trace
validate``/``summarize`` accept it (and reject garbage with exit 2),
``engine ingest --trace`` records per-record ingest spans, and a chase
that hits its round budget warns loudly on stderr instead of silently
returning partial matches.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.datagen.generator import generate_dataset
from repro.datagen.schemas import extended_mds
from repro.experiments.harness import resolution_spec_document
from repro.obs import read_trace, validate_trace
from repro.relations.csvio import save_relation


@pytest.fixture
def matching_run(tmp_path):
    """A spec file plus left/right CSVs ready for ``repro match``."""
    dataset = generate_dataset(40, seed=3)
    document = resolution_spec_document(
        dataset.pair,
        dataset.target,
        extended_mds(dataset.pair),
        blocking={"backend": "hash", "key_length": 2},
        execution={"mode": "enforce"},
    )
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(document))
    left = tmp_path / "left.csv"
    right = tmp_path / "right.csv"
    save_relation(dataset.credit, left)
    save_relation(dataset.billing, right)
    return spec, left, right


def _span_names(document):
    return {
        event["name"]
        for event in document["traceEvents"]
        if isinstance(event, dict) and event.get("ph") == "X"
    }


class TestMatchTrace:
    def test_trace_file_is_chrome_loadable(self, matching_run, tmp_path, capsys):
        spec, left, right = matching_run
        trace = tmp_path / "trace.json"
        code = main(
            ["match", "--spec", str(spec), "--left", str(left),
             "--right", str(right), "--trace", str(trace), "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)

        document = read_trace(trace)
        assert validate_trace(document) == []
        # The manifest identifies the run: fingerprint, command, argv.
        manifest = document["manifest"]
        assert manifest["spec_fingerprint"] == report["spec_fingerprint"]
        assert manifest["command"] == "match"
        assert str(left) in manifest["left"]
        assert "--trace" in manifest["argv"]
        # The span tree covers compile and enforcement.
        assert {"compile", "enforce", "blocking", "chase"} <= _span_names(
            document
        )

    def test_the_phases_record_the_peak_they_closed_at(
        self, matching_run, tmp_path, capsys
    ):
        """The batch clustering is a ``cluster`` span after ``enforce``;
        both record the resident-memory high-water mark at their close,
        and ``trace summarize`` names the phase the peak was reached in."""
        spec, left, right = matching_run
        trace = tmp_path / "trace.json"
        assert main(
            ["match", "--spec", str(spec), "--left", str(left),
             "--right", str(right), "--trace", str(trace), "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        events = {
            event["name"]: event
            for event in read_trace(trace)["traceEvents"]
            if event.get("ph") == "X"
        }
        enforce, cluster = events["enforce"], events["cluster"]
        assert cluster["ts"] >= enforce["ts"] + enforce["dur"]
        assert cluster["args"]["matches"] == len(report["matches"])
        assert cluster["args"]["clusters"] == len(report["clusters"])
        peaks = [enforce["args"]["peak_rss_mb"], cluster["args"]["peak_rss_mb"]]
        assert 0 < peaks[0] <= peaks[1]
        assert main(["trace", "summarize", str(trace)]) == 0
        (line,) = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("peak RSS at close: ")
        ]
        reached = "enforce" if peaks[0] == peaks[1] else "cluster"
        assert line == (
            f"peak RSS at close: enforce {peaks[0]:.2f} MB, cluster {peaks[1]:.2f} MB"
            f" (the peak was reached by the close of {reached})"
        )

    def test_an_untraced_match_reads_no_peak(self, matching_run, monkeypatch, capsys):
        import repro.obs.trace as trace_module

        def refuse():
            raise AssertionError("an untraced run read its peak RSS")

        monkeypatch.setattr(trace_module, "peak_rss_mb", refuse)
        spec, left, right = matching_run
        assert main(
            ["match", "--spec", str(spec), "--left", str(left),
             "--right", str(right), "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["matches"]

    def test_no_trace_flag_writes_nothing(self, matching_run, tmp_path, capsys):
        spec, left, right = matching_run
        code = main(
            ["match", "--spec", str(spec), "--left", str(left),
             "--right", str(right), "--json"]
        )
        assert code == 0
        capsys.readouterr()
        assert list(tmp_path.glob("*.json")) == [spec]

    def test_unwritable_trace_path_is_a_cli_error(
        self, matching_run, tmp_path, capsys
    ):
        spec, left, right = matching_run
        code = main(
            ["match", "--spec", str(spec), "--left", str(left),
             "--right", str(right),
             "--trace", str(tmp_path / "missing-dir" / "trace.json")]
        )
        assert code == 2
        assert "cannot write trace" in capsys.readouterr().err


class TestTraceSubcommands:
    def _traced(self, matching_run, tmp_path):
        spec, left, right = matching_run
        trace = tmp_path / "trace.json"
        assert main(
            ["match", "--spec", str(spec), "--left", str(left),
             "--right", str(right), "--trace", str(trace), "--json"]
        ) == 0
        return trace

    def test_validate_accepts_a_real_trace(
        self, matching_run, tmp_path, capsys
    ):
        trace = self._traced(matching_run, tmp_path)
        capsys.readouterr()
        assert main(["trace", "validate", str(trace)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK:")
        assert "span event(s)" in out

    def test_summarize_prints_the_span_table(
        self, matching_run, tmp_path, capsys
    ):
        trace = self._traced(matching_run, tmp_path)
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "spec_fingerprint=" in out
        assert "chase" in out
        assert "chase.seconds" in out  # the metrics section rides along

    def test_validate_rejects_garbage_with_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": []}))
        assert main(["trace", "validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "problem(s)" in err

    def test_summarize_rejects_garbage_with_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": []}))
        assert main(["trace", "summarize", str(bad)]) == 2
        assert "not a valid trace" in capsys.readouterr().err

    def test_a_jsonl_trace_is_rejected_with_exit_2(self, tmp_path, capsys):
        """One JSON object per line, what ``--trace-format jsonl`` wrote
        before 11.0, is not a trace file any more."""
        bad = tmp_path / "trace.jsonl"
        bad.write_text('{"manifest": {}}\n{"metrics": null}\n')
        assert main(["trace", "validate", str(bad)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_file_is_a_cli_error(self, tmp_path, capsys):
        assert main(["trace", "validate", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err


class TestRoundsExhaustedWarning:
    """Satellite (a): budget exhaustion is a visible warning, not a secret."""

    CHAIN = 4

    def _chain_run(self, tmp_path, max_rounds):
        """A dependency-chain ruleset that needs CHAIN+1 rounds to converge.

        Rule *i* repairs the attribute rule *i+1* compares, so a
        ``max_rounds`` below CHAIN+1 exhausts the budget mid-cascade
        (the same adversarial construction as
        ``tests/plan/test_rounds_exhausted.py``).
        """
        attributes = [f"A{index}" for index in range(self.CHAIN + 1)]
        document = {
            "version": 1,
            "schema": {
                "left": {"name": "R", "attributes": attributes},
                "right": {"name": "S", "attributes": attributes},
            },
            "target": {"left": ["A1"], "right": ["A1"]},
            "rules": {
                "mds": [
                    f"R[A{i}] = S[A{i}] -> R[A{i + 1}] <=> S[A{i + 1}]"
                    for i in range(self.CHAIN)
                ]
            },
            "execution": {"mode": "enforce", "max_rounds": max_rounds},
        }
        spec = tmp_path / "chain-spec.json"
        spec.write_text(json.dumps(document))
        left = tmp_path / "chain-left.csv"
        right = tmp_path / "chain-right.csv"
        left.write_text(
            ",".join(attributes) + "\n"
            + "\n".join(
                f"match-{copy},"
                + ",".join(
                    f"left-{copy}-{i}-long" for i in range(1, self.CHAIN + 1)
                )
                for copy in range(3)
            )
            + "\n"
        )
        right.write_text(
            ",".join(attributes) + "\n"
            + "\n".join(
                f"match-{copy}" + "," * self.CHAIN for copy in range(3)
            )
            + "\n"
        )
        return spec, left, right

    def test_exhausted_budget_warns_on_stderr(self, tmp_path, capsys):
        spec, left, right = self._chain_run(tmp_path, max_rounds=1)
        code = main(
            ["match", "--spec", str(spec), "--left", str(left),
             "--right", str(right), "--json"]
        )
        assert code == 0  # partial matches still print; the warning rides
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["stats"]["rounds_exhausted"] > 0
        assert "warning: the chase hit its round budget" in captured.err
        assert "execution.max_rounds=1" in captured.err
        assert "raise execution.max_rounds" in captured.err
        # The rules in play are named, so the user can see the cascade.
        assert "md0" in captured.err

    def test_converged_run_does_not_warn(self, tmp_path, capsys):
        spec, left, right = self._chain_run(tmp_path, max_rounds=100)
        code = main(
            ["match", "--spec", str(spec), "--left", str(left),
             "--right", str(right), "--json"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["stats"]["rounds_exhausted"] == 0
        assert "round budget" not in captured.err

    def test_exhaustion_lands_on_the_trace_too(self, tmp_path, capsys):
        spec, left, right = self._chain_run(tmp_path, max_rounds=1)
        trace = tmp_path / "exhausted.json"
        assert main(
            ["match", "--spec", str(spec), "--left", str(left),
             "--right", str(right), "--trace", str(trace), "--json"]
        ) == 0
        capsys.readouterr()
        document = read_trace(trace)
        exhausted = [
            event
            for event in document["traceEvents"]
            if event.get("ph") == "X"
            and event.get("name") == "chase"
            and event["args"].get("rounds_exhausted")
        ]
        assert exhausted
        # The triggering rule set is recorded with the exhaustion mark.
        assert exhausted[0]["args"]["rule_set"]


class TestEngineIngestTrace:
    def test_ingest_trace_records_per_record_spans(
        self, matching_run, tmp_path, capsys
    ):
        spec, left, right = matching_run
        store = tmp_path / "store.db"
        trace = tmp_path / "ingest-trace.json"
        code = main(
            ["engine", "ingest", "--spec", str(spec), "--store", str(store),
             "--left", str(left), "--right", str(right),
             "--trace", str(trace), "--json"]
        )
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        document = read_trace(trace)
        assert validate_trace(document) == []
        manifest = document["manifest"]
        assert manifest["command"] == "engine ingest"
        assert manifest["ingested"] == stats["ingested"] > 0
        ingest_spans = [
            event
            for event in document["traceEvents"]
            if event.get("ph") == "X" and event.get("name") == "ingest"
        ]
        assert len(ingest_spans) == stats["ingested"]
        # The engine's latency histogram made it into the trace document.
        assert (
            document["metrics"]["histograms"]["engine.ingest_seconds"]["count"]
            == stats["ingested"]
        )
