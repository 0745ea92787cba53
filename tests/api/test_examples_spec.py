"""Acceptance: the checked-in examples/spec.json drives all three modes.

``Workspace.match``, ``Workspace.stream().ingest_stream`` and
``repro match --spec`` must produce identical match pairs on the
checked-in Fig. 1 data, each run compiling its plan exactly once
(asserted via ``PlanStats.compiles``).  The example *scripts* beside it
must at least import: nothing else runs them.
"""

import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import ResolutionSpec, Workspace
from repro.cli import main
from repro.core.schema import LEFT, RIGHT
from repro.engine import SQLiteMatchStore
from repro.relations.csvio import load_relation

REPO_ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = REPO_ROOT / "examples" / "spec.json"
CREDIT_CSV = REPO_ROOT / "examples" / "data" / "credit.csv"
BILLING_CSV = REPO_ROOT / "examples" / "data" / "billing.csv"


@pytest.fixture(scope="module")
def example_workspace():
    return Workspace.from_file(SPEC_PATH)


@pytest.fixture(scope="module")
def example_relations(example_workspace):
    pair = example_workspace.plan.pair
    return (
        load_relation(pair.left, CREDIT_CSV),
        load_relation(pair.right, BILLING_CSV),
    )


def test_example_spec_is_valid_and_versioned():
    document = json.loads(SPEC_PATH.read_text())
    assert document["version"] == 1
    assert ResolutionSpec.validate_document(document) == []


def test_example_spec_fingerprint_is_pinned():
    """A literal, so that no edit to the spec layer — a key dropped from
    the fingerprint included — can move it silently: stores and
    snapshots written under this spec must keep opening."""
    assert ResolutionSpec.from_file(SPEC_PATH).fingerprint() == "bb08144399820b1a"


def test_cli_spec_validate_accepts_it(capsys):
    assert main(["spec", "validate", str(SPEC_PATH)]) == 0
    assert "OK:" in capsys.readouterr().out


def test_three_modes_produce_identical_pairs(example_workspace, example_relations, capsys):
    workspace = example_workspace
    credit, billing = example_relations

    # Mode 1: batch Workspace.match (compiles this workspace's plan once).
    report = workspace.match(credit, billing)
    batch_pairs = set(report.matches)
    assert batch_pairs
    assert report.stats["compiles"] == 1

    # Mode 2: streaming through the same workspace — same plan object,
    # still exactly one compile.
    matcher = workspace.stream()
    events = [(LEFT, row.values()) for row in credit] + [
        (RIGHT, row.values()) for row in billing
    ]
    matcher.ingest_stream(events)
    stream_pairs = {
        pair
        for cluster in matcher.store.clusters()
        for pair in cluster.implied_pairs()
    }
    assert workspace.plan.stats.compiles == 1

    # Mode 3: the CLI, spec-driven; its fresh workspace also compiles once.
    assert main([
        "match", "--spec", str(SPEC_PATH),
        "--left", str(CREDIT_CSV), "--right", str(BILLING_CSV),
        "--json",
    ]) == 0
    cli_report = json.loads(capsys.readouterr().out)
    cli_pairs = {tuple(pair) for pair in cli_report["matches"]}
    assert cli_report["stats"]["compiles"] == 1
    assert cli_report["spec_fingerprint"] == workspace.fingerprint

    assert batch_pairs == stream_pairs == cli_pairs


def test_engine_ingest_embeds_the_spec_fingerprint(tmp_path, capsys):
    store_path = tmp_path / "store.db"
    assert main([
        "engine", "ingest", "--spec", str(SPEC_PATH),
        "--store", str(store_path),
        "--left", str(CREDIT_CSV), "--right", str(BILLING_CSV),
        "--json",
    ]) == 0
    stats = json.loads(capsys.readouterr().out)
    expected = ResolutionSpec.from_file(SPEC_PATH).fingerprint()
    assert stats["spec_fingerprint"] == expected
    store = SQLiteMatchStore(store_path)
    assert store.spec_fingerprint == expected
    store.close(commit=False)


def test_plain_spec_run_raises_no_deprecation_warning():
    """``src/`` reaches nothing deprecated — its own or the standard
    library's — on the path every workload runs."""
    run = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-m", "repro",
         "match", "--spec", str(SPEC_PATH),
         "--left", str(CREDIT_CSV), "--right", str(BILLING_CSV)],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["0,0", "0,1", "0,2", "0,3"]


@pytest.mark.parametrize(
    "script",
    sorted((REPO_ROOT / "examples").glob("*.py")),
    ids=lambda path: path.stem,
)
def test_example_script_imports(script):
    """Run under a name other than ``__main__``: only import-time
    breakage (a module or name an example uses being removed) shows."""
    runpy.run_path(str(script), run_name=script.stem)
