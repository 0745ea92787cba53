"""Tests for the command-line interface."""

import csv
import gc
import importlib.util
import json
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import Workspace
from repro.cli import main
from repro.datagen.generator import figure1_instances
from repro.relations.csvio import load_relation, save_relation

from store_state import recipe_config


#: Example 1.1's schemas and target with the three MDs of Example 2.1.
SPEC_DOCUMENT = {
    "version": 1,
    "schema": {
        "left": {
            "name": "credit",
            "attributes": ["c#", "SSN", "FN", "LN", "addr", "tel", "email",
                           "gender", "type"],
        },
        "right": {
            "name": "billing",
            "attributes": ["c#", "FN", "LN", "post", "phn", "email",
                           "gender", "item", "price"],
        },
    },
    "target": {
        "left": ["FN", "LN", "addr", "tel", "gender"],
        "right": ["FN", "LN", "post", "phn", "gender"],
    },
    "rules": {
        "mds": [
            "credit[LN] = billing[LN] & credit[addr] = billing[post] & "
            "credit[FN] ~dl(0.8) billing[FN] -> "
            "credit[FN] <=> billing[FN] & credit[LN] <=> billing[LN] & "
            "credit[addr] <=> billing[post] & credit[tel] <=> billing[phn] & "
            "credit[gender] <=> billing[gender]",
            "credit[tel] = billing[phn] -> credit[addr] <=> billing[post]",
            "credit[email] = billing[email] -> "
            "credit[FN] <=> billing[FN] & credit[LN] <=> billing[LN]",
        ],
        "top_k": 5,
    },
    "execution": {"mode": "direct"},
}


def _write_spec(path, **sections):
    path.write_text(json.dumps({**SPEC_DOCUMENT, **sections}))
    return path


@pytest.fixture
def spec_file(tmp_path):
    """The Fig. 1 ResolutionSpec every command below is driven by."""
    return _write_spec(tmp_path / "spec.json")


def test_importing_the_cli_does_not_import_multiprocessing():
    """The chase runs in the calling process; start-up pays for no pool."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(src)},
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "False"


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
    reason="no built-in SHA-256 module: the fingerprint falls back to hashlib",
)
def test_a_whole_match_leaves_openssl_unloaded():
    """The spec fingerprint's SHA-256 is CPython's own: a ``repro match
    --json`` loads no ``_hashlib`` (OpenSSL's libcrypto) from start to
    end."""
    root = Path(__file__).resolve().parents[1]
    data = root / "examples" / "data"
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, io, contextlib\n"
         "from repro.cli import main\n"
         "out = io.StringIO()\n"
         "with contextlib.redirect_stdout(out):\n"
         "    code = main(sys.argv[1:])\n"
         "print(code, '\"spec_fingerprint\"' in out.getvalue(), "
         "sorted(m for m in sys.modules if 'hashlib' in m))",
         "match", "--spec", str(root / "examples" / "spec.json"),
         "--left", str(data / "credit.csv"), "--right", str(data / "billing.csv"),
         "--json"],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(root / "src")},
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "0 True []"


#: Modules ``repro match`` never runs: the store's ``sqlite3`` (and the
#: ``datetime`` it pulls in), the trace manifest's ``platform``, and the
#: experiments package (the figures, the Fig. 9 baselines and the
#: Section 8 extensions; ``tests/test_front_door.py`` keeps the rest of
#: ``repro`` from importing it).
UNUSED_BY_MATCH = (
    "sqlite3",
    "datetime",
    "platform",
    "repro.experiments",
)


def test_importing_the_cli_loads_no_module_match_never_runs():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; "
         f"print([m for m in {UNUSED_BY_MATCH!r} if m in sys.modules])"],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(src)},
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"


def test_the_baselines_import_from_the_experiments_only():
    from repro.experiments.baselines.comparison import ComparisonSpec
    from repro.experiments.baselines.em import fit_em
    from repro.experiments.baselines.fellegi_sunter import FellegiSunter

    assert ComparisonSpec.__module__ == "repro.experiments.baselines.comparison"
    assert fit_em.__module__ == "repro.experiments.baselines.em"
    assert FellegiSunter.__module__ == "repro.experiments.baselines.fellegi_sunter"
    import repro.matching

    for moved in ("ComparisonSpec", "fit_em", "FellegiSunter"):
        with pytest.raises(AttributeError):
            getattr(repro.matching, moved)


class TestSpecLoading:
    """``--spec`` is the only loader: its failures exit 2 with a message."""

    def test_missing_file(self, tmp_path, capsys):
        assert main(["deduce", "--spec", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["deduce", "--spec", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_section(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(
            {"version": 1, "schema": {"left": SPEC_DOCUMENT["schema"]["left"]}}
        ))
        assert main(["deduce", "--spec", str(path)]) == 2
        assert "right" in capsys.readouterr().err

    def test_md_parse_error_reported(self, tmp_path, capsys):
        bad = _write_spec(
            tmp_path / "bad.json", rules={"mds": ["garbage -> nonsense"]}
        )
        assert main(["deduce", "--spec", str(bad)]) == 2
        assert "rules.mds[0]" in capsys.readouterr().err


class TestDeduce:
    def test_deduce_prints_keys(self, spec_file, capsys):
        code = main(
            ["deduce", "--spec", str(spec_file),
             "-m", "6"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "RCK(s) relative to" in output
        assert "email" in output  # rck3/rck4 mention email


class TestCheck:
    def test_deducible_md_exit_zero(self, spec_file, capsys):
        code = main(
            ["check", "--spec", str(spec_file),
             "credit[email] = billing[email] & credit[tel] = billing[phn] -> "
             "credit[gender] <=> billing[gender]"]
        )
        assert code == 0
        assert "True" in capsys.readouterr().out

    def test_non_deducible_md_exit_one(self, spec_file, capsys):
        code = main(
            ["check", "--spec", str(spec_file),
             "credit[email] = billing[email] -> credit[addr] <=> billing[post]"]
        )
        assert code == 1
        assert "False" in capsys.readouterr().out

    def test_bad_md_syntax(self, spec_file, capsys):
        code = main(
            ["check", "--spec", str(spec_file),
             "garbage"]
        )
        assert code == 2

    def test_explain_prints_derivation(self, spec_file, capsys):
        code = main(
            ["check", "--spec", str(spec_file),
             "--explain",
             "credit[email] = billing[email] & credit[tel] = billing[phn] -> "
             "credit[gender] <=> billing[gender]"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Derivation:" in output
        assert "[by MD:" in output

    def test_explain_failure_report(self, spec_file, capsys):
        code = main(
            ["check", "--spec", str(spec_file),
             "--explain",
             "credit[email] = billing[email] -> credit[addr] <=> billing[post]"]
        )
        assert code == 1
        assert "No derivation" in capsys.readouterr().out


class TestMatch:
    def test_match_fig1(self, spec_file, tmp_path, capsys):
        _, credit, billing = figure1_instances()
        left_path = tmp_path / "credit.csv"
        right_path = tmp_path / "billing.csv"
        save_relation(credit, left_path)
        save_relation(billing, right_path)
        out_path = tmp_path / "matches.csv"
        code = main(
            ["match", "--spec", str(spec_file),
             "--left", str(left_path), "--right", str(right_path),
             "-o", str(out_path), "--window", "10"]
        )
        assert code == 0
        with out_path.open() as handle:
            rows = list(csv.DictReader(handle))
        matched = {(int(r["left_tid"]), int(r["right_tid"])) for r in rows}
        # Windowed candidates catch t1 with several billing tuples.
        assert matched
        assert all(left == 0 for left, _ in matched)  # only t1 matches

    def test_a_csv_matched_against_itself_is_the_relation_and_its_copy(
        self, tmp_path, capsys
    ):
        """Deduplication through the front door: a spec over one schema
        ``(R, R)`` and one CSV as ``--left`` and ``--right``.  The CLI
        loads the file twice, so its matches are those of
        ``Workspace.match(relation, relation.copy())``."""
        attributes = ["FN", "LN", "addr", "tel"]
        spec_path = tmp_path / "dedup.json"
        spec_path.write_text(json.dumps({
            "version": 1,
            "schema": {
                "left": {"name": "person", "attributes": attributes},
                "right": {"name": "person", "attributes": attributes},
            },
            "target": {"left": attributes[:3], "right": attributes[:3]},
            "rules": {
                "mds": [
                    "person[LN] = person[LN] & person[addr] = person[addr] & "
                    "person[FN] ~dl(0.7) person[FN] -> "
                    "person[FN] <=> person[FN] & person[LN] <=> person[LN]",
                    "person[tel] = person[tel] -> person[addr] <=> person[addr]",
                ],
                "top_k": 3,
            },
        }))
        people = tmp_path / "people.csv"
        people.write_text(
            "FN,LN,addr,tel\n"
            "Mark,Clifford,10 Oak Street,908-1111111\n"
            "Marx,Clifford,10 Oak Street,908-1111111\n"
            "Mark,Clifford,NJ,908-1111111\n"
            "David,Smith,620 Elm Street,908-2222222\n"
            "Dave,Smith,620 Elm Street,908-3333333\n"
        )
        code = main(
            ["match", "--spec", str(spec_path),
             "--left", str(people), "--right", str(people), "--json"]
        )
        assert code == 0
        matched = [tuple(pair) for pair in json.loads(capsys.readouterr().out)["matches"]]
        workspace = Workspace.from_file(spec_path)
        relation = load_relation(workspace.plan.pair.left, people)
        assert matched == list(workspace.match(relation, relation.copy()).matches)
        # The three Mark Cliffords are one person, each other tuple itself.
        assert matched == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2),
            (3, 3), (4, 4),
        ]

    def test_match_workers_flag_is_gone(self, spec_file, tmp_path, capsys):
        """There is one executor: argparse rejects the flag (exit 2)."""
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["match", "--spec", str(spec_file),
                 "--left", str(tmp_path / "credit.csv"),
                 "--right", str(tmp_path / "billing.csv"),
                 "--workers", "2"]
            )
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_match_trace_format_flag_is_gone(self, spec_file, tmp_path, capsys):
        """A trace file is the Chrome document only (11.0)."""
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["match", "--spec", str(spec_file),
                 "--left", str(tmp_path / "credit.csv"),
                 "--right", str(tmp_path / "billing.csv"),
                 "--trace-format", "jsonl"]
            )
        assert excinfo.value.code == 2
        assert "--trace-format" in capsys.readouterr().err

    def test_match_plain_csv_without_tids(self, spec_file, tmp_path):
        left_path = tmp_path / "credit.csv"
        left_path.write_text(
            "FN,LN,addr,tel,email,gender\n"
            "Mark,Clifford,10 Oak Street,908-1111111,mc@gm.com,M\n"
        )
        right_path = tmp_path / "billing.csv"
        right_path.write_text(
            "FN,LN,post,phn,email,gender\n"
            "Marx,Clifford,10 Oak Street,908-1111111,mc@gm.com,M\n"
        )
        code = main(
            ["match", "--spec", str(spec_file),
             "--left", str(left_path), "--right", str(right_path)]
        )
        assert code == 0

    def test_match_unknown_column_rejected(self, spec_file, tmp_path, capsys):
        left_path = tmp_path / "credit.csv"
        left_path.write_text("WRONG\nx\n")
        right_path = tmp_path / "billing.csv"
        right_path.write_text("FN\nMarx\n")
        code = main(
            ["match", "--spec", str(spec_file),
             "--left", str(left_path), "--right", str(right_path)]
        )
        assert code == 2
        assert "WRONG" in capsys.readouterr().err


class TestMatchCollectorPause:
    """``match`` runs with the cyclic garbage collector off.  That is safe
    only while what it leaves for the collector does not grow with the
    input, and ``main()`` must hand the collector back as it found it."""

    @staticmethod
    def _instance(directory, size, backend):
        from repro.api import Workspace
        from repro.datagen.generator import generate_dataset
        from repro.datagen.schemas import extended_mds

        data = generate_dataset(size, seed=7)
        options = {"window": 10} if backend == "sorted-neighborhood" else {}
        spec = (
            Workspace.builder()
            .pair(data.pair)
            .target(data.target)
            .mds(extended_mds(data.pair))
            .blocking(backend, **options)
            .execution(top_k=5)
            .build()
        )
        directory.mkdir()
        spec.save(directory / "spec.json")
        save_relation(data.credit, directory / "credit.csv")
        save_relation(data.billing, directory / "billing.csv")
        return [
            "match", "--spec", str(directory / "spec.json"),
            "--left", str(directory / "credit.csv"),
            "--right", str(directory / "billing.csv"), "--json",
        ]

    @pytest.mark.parametrize("backend", ["sorted-neighborhood", "hash"])
    def test_the_cyclic_garbage_of_a_match_does_not_grow_with_the_input(
        self, backend, tmp_path, capsys
    ):
        left_behind = []
        for size in (200, 1000):
            argv = self._instance(tmp_path / str(size), size, backend)
            gc.collect()
            gc.disable()
            try:
                assert main(argv) == 0
                left_behind.append(gc.collect())
            finally:
                gc.enable()
            capsys.readouterr()
        small, large = left_behind
        assert small == large

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_restores_the_collector_after_success_and_error(
        self, enabled, tmp_path, capsys, monkeypatch
    ):
        import repro.cli

        argv = self._instance(tmp_path / "data", 30, "hash")
        broken = argv[:4] + [str(tmp_path / "missing.csv")] + argv[5:]
        during = []
        match = repro.cli._match
        monkeypatch.setattr(
            repro.cli, "_match",
            lambda args: during.append(gc.isenabled()) or match(args),
        )
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert main(argv) == 0
            assert gc.isenabled() is enabled
            assert main(broken) == 2
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert during == [False, False]
        assert "missing.csv" in capsys.readouterr().err


class TestMalformedCsv:
    """A malformed data row is exit 2 with one ``error:`` line naming the
    file and line — never a traceback — from ``match`` and ``engine
    ingest`` alike, and ``engine ingest`` reads both files before it
    touches the store."""

    @pytest.fixture
    def fig1_csvs(self, tmp_path):
        _, credit, billing = figure1_instances()
        left_path = tmp_path / "credit.csv"
        right_path = tmp_path / "billing.csv"
        save_relation(credit, left_path)
        save_relation(billing, right_path)
        return left_path, right_path

    def _run(self, command, spec_file, left_path, right_path, tmp_path):
        store = tmp_path / "store.db"
        arguments = (
            ["match", "--spec", str(spec_file)]
            if command == "match"
            else ["engine", "ingest", "--spec", str(spec_file), "--store", str(store)]
        )
        return main(
            [*arguments, "--left", str(left_path), "--right", str(right_path)]
        ), store

    def _refused(self, capsys, code, store, *fragments):
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        for fragment in fragments:
            assert fragment in err
        assert "Traceback" not in err
        assert not store.exists()

    @pytest.mark.parametrize("command", ["match", "ingest"])
    def test_a_blank_record_is_skipped(self, command, spec_file, fig1_csvs, tmp_path, capsys):
        left_path, right_path = fig1_csvs
        for name in "ab":
            (tmp_path / name).mkdir()
        expected, _ = self._run(command, spec_file, left_path, right_path, tmp_path / "a")
        clean = capsys.readouterr().out
        lines = left_path.read_text().splitlines(keepends=True)
        left_path.write_text("".join(lines[:2] + ["\n"] + lines[2:] + ["\n"]))
        code, _ = self._run(command, spec_file, left_path, right_path, tmp_path / "b")
        assert code == expected == 0
        assert capsys.readouterr().out == clean.replace(str(tmp_path / "a"), str(tmp_path / "b"))

    @pytest.mark.parametrize("command", ["match", "ingest"])
    def test_a_non_integer_tid(self, command, spec_file, fig1_csvs, tmp_path, capsys):
        left_path, right_path = fig1_csvs
        lines = left_path.read_text().splitlines(keepends=True)
        lines[2] = "x" + lines[2][lines[2].index(","):]
        left_path.write_text("".join(lines))
        code, store = self._run(command, spec_file, left_path, right_path, tmp_path)
        self._refused(
            capsys, code, store, f"{left_path}, line 3", "tuple id 'x' is not an integer"
        )

    @pytest.mark.parametrize("command", ["match", "ingest"])
    def test_a_duplicate_tid(self, command, spec_file, fig1_csvs, tmp_path, capsys):
        left_path, right_path = fig1_csvs
        lines = right_path.read_text().splitlines(keepends=True)
        right_path.write_text("".join(lines + lines[1:2]))
        code, store = self._run(command, spec_file, left_path, right_path, tmp_path)
        self._refused(
            capsys, code, store, f"{right_path}, line {len(lines) + 1}",
            "tuple id 0 already present",
        )

    @pytest.mark.parametrize("command", ["match", "ingest"])
    def test_a_plain_csv_row_with_an_extra_field(
        self, command, spec_file, fig1_csvs, tmp_path, capsys
    ):
        left_path, right_path = fig1_csvs
        left_path.write_text(
            "FN,LN,addr\n"
            "Mark,Clifford,10 Oak Street\n"
            "Mark,Clifford,10 Oak Street,908-1111111\n"
        )
        code, store = self._run(command, spec_file, left_path, right_path, tmp_path)
        self._refused(
            capsys, code, store, f"{left_path}, line 3", "4 fields, the header has 3"
        )

    @pytest.mark.parametrize("command", ["match", "ingest"])
    def test_a_saved_csv_row_with_an_extra_field(
        self, command, spec_file, fig1_csvs, tmp_path, capsys
    ):
        left_path, right_path = fig1_csvs
        lines = right_path.read_text().splitlines(keepends=True)
        lines[2] = lines[2].rstrip("\r\n") + ",EXTRA\n"
        right_path.write_text("".join(lines))
        fields = len(SPEC_DOCUMENT["schema"]["right"]["attributes"]) + 1
        code, store = self._run(command, spec_file, left_path, right_path, tmp_path)
        self._refused(
            capsys, code, store, f"{right_path}, line 3",
            f"{fields + 1} fields, the header has {fields}",
        )

    @pytest.mark.parametrize("command", ["match", "ingest"])
    def test_a_plain_header_naming_a_column_twice(
        self, command, spec_file, fig1_csvs, tmp_path, capsys
    ):
        left_path, right_path = fig1_csvs
        left_path.write_text("FN,LN,FN\nMark,Clifford,Marc\n")
        code, store = self._run(command, spec_file, left_path, right_path, tmp_path)
        self._refused(
            capsys, code, store, f"error: {left_path}: column 'FN' appears twice"
        )

    @pytest.mark.parametrize("command", ["match", "ingest"])
    def test_a_directory_for_a_file(self, command, spec_file, fig1_csvs, tmp_path, capsys):
        _, right_path = fig1_csvs
        directory = tmp_path / "data"
        directory.mkdir()
        code, store = self._run(command, spec_file, directory, right_path, tmp_path)
        self._refused(capsys, code, store, f"error: {directory}: ")

    @pytest.mark.parametrize("command", ["match", "ingest"])
    @pytest.mark.parametrize(
        "header",
        ["FN,LN,addr", "__tid__,c#,SSN,FN,LN,addr,tel,email,gender,type"],
        ids=["plain", "saved"],
    )
    def test_a_file_that_is_not_utf8(
        self, command, header, spec_file, fig1_csvs, tmp_path, capsys
    ):
        left_path, right_path = fig1_csvs
        left_path.write_bytes(header.encode() + b"\nMa\xffrk,Clifford,10 Oak Street\n")
        code, store = self._run(command, spec_file, left_path, right_path, tmp_path)
        self._refused(capsys, code, store, f"error: {left_path}: not UTF-8 text")


class TestPlanExplain:
    def test_explain_prints_compiled_plan(self, spec_file, capsys):
        code = main(
            ["plan", "explain", "--spec", str(spec_file)]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "EnforcementPlan over (credit, billing)" in output
        assert "unique predicate(s)" in output
        assert "exact equality" in output
        assert "DamerauLevenshtein >= 0.8" in output
        assert "sorted-neighborhood(window=10" in output

    def test_explain_hash_backend(self, spec_file, capsys):
        code = main(
            ["plan", "explain", "--spec", str(spec_file), "--backend", "hash"]
        )
        assert code == 0
        assert "hash(" in capsys.readouterr().out

    def test_explain_json(self, spec_file, capsys):
        code = main(
            ["plan", "explain", "--spec", str(spec_file), "--json"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["unique_predicates"] < document["atoms_before_dedup"]
        # A direct spec chases its keys: the rules are the keys, by name.
        assert document["keys"]
        assert [rule["name"] for rule in document["rules"]] == [
            key["name"] for key in document["keys"]
        ]


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        output = capsys.readouterr().out
        assert "Deduced RCKs" in output
        assert "(0, 3)" in output  # t1 ~ t6


class TestEngine:
    @pytest.fixture
    def fig1_csvs(self, tmp_path):
        _, credit, billing = figure1_instances()
        left_path = tmp_path / "credit.csv"
        right_path = tmp_path / "billing.csv"
        save_relation(credit, left_path)
        save_relation(billing, right_path)
        return left_path, right_path

    def test_ingest_creates_store(self, spec_file, fig1_csvs,
                                  tmp_path, capsys):
        left_path, right_path = fig1_csvs
        store_path = tmp_path / "store.db"
        code = main(
            ["engine", "ingest", "--spec", str(spec_file), "--store", str(store_path),
             "--left", str(left_path), "--right", str(right_path)]
        )
        assert code == 0
        assert store_path.exists()
        output = capsys.readouterr().out
        assert "ingested 6 record(s)" in output

    def test_stats_and_query(self, spec_file, fig1_csvs,
                             tmp_path, capsys):
        left_path, right_path = fig1_csvs
        store_path = tmp_path / "store.db"
        assert main(
            ["engine", "ingest", "--spec", str(spec_file), "--store", str(store_path),
             "--left", str(left_path), "--right", str(right_path)]
        ) == 0
        capsys.readouterr()
        assert main(["engine", "stats", "--store", str(store_path)]) == 0
        output = capsys.readouterr().out
        assert "left_rows: 2" in output
        assert "matched_clusters: 1" in output

        assert main(
            ["engine", "query", "--store", str(store_path),
             "--side", "left", "--tid", "0", "--json"]
        ) == 0
        cluster = json.loads(capsys.readouterr().out)
        assert cluster["left_tids"] == [0]
        assert cluster["right_tids"] == [0, 1, 2, 3]

    def test_query_unknown_tid(self, spec_file, fig1_csvs,
                               tmp_path, capsys):
        left_path, _ = fig1_csvs
        store_path = tmp_path / "store.db"
        assert main(
            ["engine", "ingest", "--spec", str(spec_file), "--store", str(store_path),
             "--left", str(left_path)]
        ) == 0
        capsys.readouterr()
        code = main(
            ["engine", "query", "--store", str(store_path),
             "--side", "right", "--tid", "99"]
        )
        assert code == 2
        assert "no right record" in capsys.readouterr().err

    def test_stats_missing_store(self, tmp_path, capsys):
        code = main(["engine", "stats", "--store", str(tmp_path / "no.db")])
        assert code == 2
        assert "not found" in capsys.readouterr().err


class TestEngineStreamGuard:
    """A store that cannot stream the spec's blocking backend exits 2.

    Sorted-neighborhood specs used to stream under hash semantics
    silently; the stream now refuses any store whose live blocking
    structures disagree with the declared ``blocking.backend``.
    """

    @pytest.fixture
    def sn_spec_file(self, tmp_path):
        return _write_spec(
            tmp_path / "sn-spec.json",
            blocking={"backend": "sorted-neighborhood", "window": 10},
            execution={"mode": "enforce"},
        )

    def test_legacy_hash_snapshot_under_sn_spec_exits_two(
        self, sn_spec_file, tmp_path, capsys
    ):
        from repro.datagen.generator import figure1_instances as fig1

        _, credit, billing = fig1()
        left_path = tmp_path / "credit.csv"
        right_path = tmp_path / "billing.csv"
        save_relation(credit, left_path)
        save_relation(billing, right_path)
        store_path = tmp_path / "store.db"
        assert main(
            ["engine", "ingest", "--spec", str(sn_spec_file),
             "--store", str(store_path), "--left", str(left_path)]
        ) == 0
        capsys.readouterr()

        # Resuming the matching SN store streams fine.
        assert main(
            ["engine", "ingest", "--spec", str(sn_spec_file),
             "--store", str(store_path), "--right", str(right_path)]
        ) == 0
        capsys.readouterr()

        # A store from the era before the blocking section existed opens
        # as a hash-blocked store: same fingerprint, different streaming
        # semantics — refused, not silently substituted.
        config = recipe_config(Workspace.from_file(sn_spec_file))
        del config["blocking"]
        with sqlite3.connect(store_path) as connection:
            connection.execute(
                "UPDATE meta SET value = ? WHERE key = 'config'",
                (json.dumps(config),),
            )
            connection.execute(
                "UPDATE meta SET value = '3' WHERE key = 'schema_version'"
            )
        connection.close()
        code = main(
            ["engine", "ingest", "--spec", str(sn_spec_file),
             "--store", str(store_path), "--right", str(right_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "streams under 'hash'" in err
        assert "rebuild the store under this spec" in err


# ----------------------------------------------------------------------
# The spec-driven surface: spec validate, tuning flags, removed flags
# ----------------------------------------------------------------------


class TestSpecValidate:
    def test_valid_spec_exits_zero(self, spec_file, capsys):
        assert main(["spec", "validate", str(spec_file)]) == 0
        assert "OK:" in capsys.readouterr().out

    def test_invalid_spec_reports_all_errors_and_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({
            "version": 9,
            "schema": {"left": {"name": "a", "attributes": ["x"]}},
            "rules": {"mds": ["garbage"]},
            "blocking": {"backend": "bogus"},
            "resolution": {"policy": "coin-flip"},
        }))
        assert main(["spec", "validate", str(path)]) == 2
        err = capsys.readouterr().err
        # Several independent problems, all reported in one run.
        assert "unsupported spec version 9" in err
        assert "bogus" in err
        assert "coin-flip" in err
        assert "error(s)" in err

    def test_saved_workers_key_is_rejected(self, spec_file, capsys):
        """A spec saved by an earlier ``to_dict()`` carries ``workers: 1``;
        the upgrade is to delete the key, and validate says which."""
        document = json.loads(spec_file.read_text())
        document["execution"]["workers"] = 1
        spec_file.write_text(json.dumps(document))
        assert main(["spec", "validate", str(spec_file)]) == 2
        first_error = capsys.readouterr().err.splitlines()[0]
        assert "execution" in first_error and "workers" in first_error

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("execution", "cache", True),
            ("execution", "cache_limit", 1048576),
            ("execution", "max_cascade", 256),
            ("observability", "trace_format", "chrome"),
        ],
    )
    def test_a_retired_key_is_refused_and_deleting_it_keeps_the_fingerprint(
        self, tmp_path, capsys, section, key, value
    ):
        """11.0 retired four options, and a spec 10.x saved carries each:
        ``spec validate`` names it, and once it is deleted the spec
        fingerprints as at 10.0.0 (where the literals were measured),
        also off the defaults."""
        tuned = {
            "blocking": {"backend": "hash", "key_length": 2},
            "execution": {"mode": "direct", "max_rounds": 7},
            "resolution": {"policy": "first-non-null"},
            "rules": {**SPEC_DOCUMENT["rules"], "top_k": 3},
        }
        for sections, fingerprint in (
            ({}, "e50aa0e9ee7dc150"), (tuned, "32fe7815ef088ecd")
        ):
            path = _write_spec(tmp_path / "spec.json", **sections)
            document = json.loads(path.read_text())
            document.setdefault(section, {})[key] = value
            path.write_text(json.dumps(document))
            assert main(["spec", "validate", str(path)]) == 2
            assert f"error: {section}: unknown key(s) ['{key}']" in (
                capsys.readouterr().err.splitlines()
            )
            del document[section][key]
            path.write_text(json.dumps(document))
            assert main(["spec", "validate", str(path)]) == 0
            assert f"(fingerprint {fingerprint})" in capsys.readouterr().out

    def test_missing_spec_file_exits_two(self, tmp_path, capsys):
        assert main(["spec", "validate", str(tmp_path / "no.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["spec", "validate", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err


class TestSpecDrivenCommands:
    def test_deduce_with_spec(self, spec_file, capsys):
        assert main(["deduce", "--spec", str(spec_file)]) == 0
        assert "RCK(s) relative to" in capsys.readouterr().out

    def test_plan_explain_with_spec(self, spec_file, capsys):
        assert main(["plan", "explain", "--spec", str(spec_file)]) == 0
        output = capsys.readouterr().out
        assert "Workspace: ResolutionSpec v1" in output
        assert "EnforcementPlan over (credit, billing)" in output

    def test_check_with_spec(self, spec_file, capsys):
        code = main(
            ["check", "--spec", str(spec_file),
             "credit[email] = billing[email] & credit[tel] = billing[phn] -> "
             "credit[gender] <=> billing[gender]"]
        )
        assert code == 0
        assert "True" in capsys.readouterr().out

    def test_invalid_spec_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"version": 1}))
        assert main(["deduce", "--spec", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_tuning_flag_overrides_spec(self, spec_file, capsys):
        assert main(["deduce", "--spec", str(spec_file), "-m", "1"]) == 0
        assert "# 1 RCK(s)" in capsys.readouterr().out

    def test_json_with_output_writes_both(self, spec_file, tmp_path, capsys):
        _, credit, billing = figure1_instances()
        left_path = tmp_path / "credit.csv"
        right_path = tmp_path / "billing.csv"
        save_relation(credit, left_path)
        save_relation(billing, right_path)
        out_path = tmp_path / "matches.csv"
        assert main(
            ["match", "--spec", str(spec_file),
             "--left", str(left_path), "--right", str(right_path),
             "-o", str(out_path), "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        with out_path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(report["matches"])

    def test_neither_spec_nor_flags_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["deduce"])
        assert excinfo.value.code == 2
        assert "--spec" in capsys.readouterr().err

    def test_flag_form_is_gone(self, spec_file, tmp_path, capsys):
        """Removal pin: argparse rejects ``--schema``/``--mds`` (exit 2),
        with or without ``--spec`` beside them."""
        legacy = ["--schema", str(tmp_path / "s.json"),
                  "--mds", str(tmp_path / "m.txt")]
        for argv in (["deduce", *legacy],
                     ["deduce", "--spec", str(spec_file), *legacy]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            capsys.readouterr()


class TestEngineSpecFingerprint:
    def test_ingest_rejects_store_from_other_spec(self, spec_file, tmp_path, capsys):
        _, credit, billing = figure1_instances()
        left_path = tmp_path / "credit.csv"
        save_relation(credit, left_path)
        store_path = tmp_path / "store.db"
        assert main(
            ["engine", "ingest", "--spec", str(spec_file),
             "--store", str(store_path), "--left", str(left_path)]
        ) == 0
        capsys.readouterr()

        # A materially different spec (other top_k) must be rejected.
        document = json.loads(spec_file.read_text())
        document["rules"]["top_k"] = 2
        other = tmp_path / "other.json"
        other.write_text(json.dumps(document))
        code = main(
            ["engine", "ingest", "--spec", str(other),
             "--store", str(store_path), "--left", str(left_path)]
        )
        assert code == 2
        assert "built from spec" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The durable SQLite store: the one format, and its error surfaces
# ----------------------------------------------------------------------


class TestEngineSQLite:
    @pytest.fixture
    def fig1_csvs(self, tmp_path):
        _, credit, billing = figure1_instances()
        left_path = tmp_path / "credit.csv"
        right_path = tmp_path / "billing.csv"
        save_relation(credit, left_path)
        save_relation(billing, right_path)
        return left_path, right_path

    def _ingest(self, spec_file, fig1_csvs, store_path, extra=()):
        left_path, right_path = fig1_csvs
        return main(
            ["engine", "ingest", "--spec", str(spec_file),
             "--store", str(store_path), "--left", str(left_path),
             "--right", str(right_path), *extra]
        )

    @pytest.mark.parametrize("name", ["store.json", "store"])
    def test_a_store_is_sqlite_whatever_its_suffix(self, name, spec_file,
                                                   fig1_csvs, tmp_path):
        from repro.engine import is_sqlite_file

        store_path = tmp_path / name
        assert self._ingest(spec_file, fig1_csvs, store_path) == 0
        assert is_sqlite_file(store_path)

    def test_db_suffix_creates_sqlite_store(self, spec_file, fig1_csvs,
                                            tmp_path, capsys):
        from repro.engine import is_sqlite_file

        store_path = tmp_path / "store.db"
        assert self._ingest(spec_file, fig1_csvs, store_path) == 0
        assert is_sqlite_file(store_path)
        capsys.readouterr()
        assert main(["engine", "stats", "--store", str(store_path),
                     "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["backend"] == "sqlite"
        assert stats["disk_bytes"] > 0
        assert stats["left_rows"] == 2
        assert stats["matched_clusters"] == 1

    def test_spec_persistence_section_routes_to_sqlite(
            self, spec_file, fig1_csvs, tmp_path, capsys):
        from repro.engine import is_sqlite_file

        document = json.loads(spec_file.read_text())
        # The path the spec's persistence section names, given as --store.
        store_path = tmp_path / "durable-store"
        document["persistence"] = {"backend": "sqlite",
                                   "path": str(store_path)}
        spec_path = tmp_path / "durable.json"
        spec_path.write_text(json.dumps(document))
        assert self._ingest(spec_path, fig1_csvs, store_path) == 0
        assert is_sqlite_file(store_path)

    def test_sqlite_store_resumes_and_queries(self, spec_file, fig1_csvs,
                                              tmp_path, capsys):
        left_path, right_path = fig1_csvs
        store_path = tmp_path / "store.db"
        assert main(
            ["engine", "ingest", "--spec", str(spec_file),
             "--store", str(store_path), "--left", str(left_path)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["engine", "ingest", "--spec", str(spec_file),
             "--store", str(store_path), "--right", str(right_path),
             "--json"]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["left_rows"] == 2
        assert stats["right_rows"] == 4
        assert stats["matched_clusters"] == 1
        assert stats["new_merges"] > 0
        assert stats["spec_fingerprint"]
        assert main(
            ["engine", "query", "--store", str(store_path),
             "--side", "left", "--tid", "0"]
        ) == 0
        assert "cluster" in capsys.readouterr().out

    def test_query_of_a_record_only_in_the_tail_says_so(
            self, spec_file, fig1_csvs, tmp_path, capsys):
        """A writer that dies after two acknowledged ingests leaves them
        in the tail; a query names them as pending, not as unknown, and
        answers once an ingest with the spec has replayed them."""
        left_path, _ = fig1_csvs
        store_path = tmp_path / "crash.db"
        writer = (
            "import os, sys\n"
            "from repro.api import Workspace\n"
            "from repro.core.schema import LEFT\n"
            "from repro.relations.csvio import load_relation\n"
            "spec, store, left = sys.argv[1:]\n"
            "workspace = Workspace.from_file(spec)\n"
            "matcher = workspace.stream(store=workspace.open_store(store))\n"
            "for row in load_relation(workspace.plan.pair.left, left):\n"
            "    matcher.ingest(LEFT, row.values())\n"
            "os._exit(0)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        crashed = subprocess.run(
            [sys.executable, "-c", writer, str(spec_file), str(store_path), str(left_path)],
            capture_output=True, text=True, timeout=60, env={"PYTHONPATH": str(src)},
        )
        assert crashed.returncode == 0, crashed.stderr
        query = ["engine", "query", "--store", str(store_path), "--side", "left", "--tid", "0"]
        assert main(query) == 2
        err = capsys.readouterr().err
        assert "no left record" not in err
        assert "left record 0 is among the 2 acknowledged event(s)" in err
        assert "repro engine ingest --spec" in err
        # A tid in neither the checkpoint nor the tail is still unknown.
        assert main([*query[:-1], "5"]) == 2
        assert "no left record with tid 5" in capsys.readouterr().err
        assert main(["engine", "ingest", "--spec", str(spec_file),
                     "--store", str(store_path)]) == 0
        capsys.readouterr()
        assert main(query) == 0
        assert "cluster of left tid 0" in capsys.readouterr().out

    def test_stats_prints_backend_line(self, spec_file, fig1_csvs,
                                       tmp_path, capsys):
        store_path = tmp_path / "store.db"
        assert self._ingest(spec_file, fig1_csvs, store_path) == 0
        capsys.readouterr()
        assert main(["engine", "stats", "--store", str(store_path)]) == 0
        output = capsys.readouterr().out
        assert "backend: sqlite" in output
        assert "disk_bytes:" in output

    #: The arguments besides ``--store`` each engine command needs.
    _ARGV = {
        "ingest": lambda spec, csvs: ["--spec", str(spec), "--left", str(csvs[0])],
        "stats": lambda spec, csvs: [],
        "query": lambda spec, csvs: ["--side", "left", "--tid", "0"],
    }

    @pytest.mark.parametrize("command", ["ingest", "stats", "query"])
    def test_a_json_file_as_store_is_refused_unchanged(
            self, command, spec_file, fig1_csvs, tmp_path, capsys):
        """A store is a SQLite file; a JSON document is not one."""
        json_path = tmp_path / "store.json"
        json_path.write_text(json.dumps({"rows": {"left": [], "right": []}}))
        before = json_path.read_bytes()
        code = main(["engine", command, "--store", str(json_path),
                     *self._ARGV[command](spec_file, fig1_csvs)])
        assert code == 2
        err = capsys.readouterr().err
        assert "not a SQLite store" in err
        assert "migrate" not in err
        assert json_path.read_bytes() == before

    @pytest.mark.parametrize("command", ["ingest", "stats", "query"])
    def test_a_foreign_sqlite_file_is_refused_unchanged(
            self, command, spec_file, fig1_csvs, tmp_path, capsys):
        """Refusing a SQLite database that is not a store leaves it as it
        was found: no pragma runs first (``journal_mode`` would persist
        as ``wal``), no table is created."""
        path = tmp_path / "foreign.db"
        with sqlite3.connect(path) as connection:
            connection.execute("CREATE TABLE readings (at TEXT, value REAL)")
            connection.execute("INSERT INTO readings VALUES ('noon', 1.5)")
        connection.close()

        def observed():
            with sqlite3.connect(path) as connection:
                seen = (
                    connection.execute("PRAGMA journal_mode").fetchone(),
                    connection.execute("SELECT * FROM sqlite_master").fetchall(),
                )
            connection.close()
            return seen

        before = observed()
        assert before[0] == ("delete",)
        code = main(["engine", command, "--store", str(path),
                     *self._ARGV[command](spec_file, fig1_csvs)])
        assert code == 2
        err = capsys.readouterr().err
        assert "no such table: meta" in err
        assert observed() == before

    def test_a_saved_copy_resumes_under_its_spec(self, spec_file, fig1_csvs,
                                                 tmp_path, capsys):
        """A ``save_store`` copy resumes under the spec it was built from."""
        from repro.engine import SQLiteMatchStore, save_store

        source = tmp_path / "source.db"
        assert self._ingest(spec_file, fig1_csvs, source) == 0
        copy = tmp_path / "copy.db"
        with SQLiteMatchStore(source) as store:
            save_store(store, copy)
        capsys.readouterr()
        assert self._ingest(spec_file, fig1_csvs, copy,
                            extra=["--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["backend"] == "sqlite"
        # Re-ingesting the same CSVs appends: the resume was accepted.
        assert stats["left_rows"] == 4

    def test_engine_migrate_is_gone(self, tmp_path, capsys):
        """6.0 removed ``engine migrate`` with the JSON snapshot format."""
        with pytest.raises(SystemExit) as excinfo:
            main(["engine", "migrate", str(tmp_path / "a.db"),
                  str(tmp_path / "b.json")])
        assert excinfo.value.code == 2
        assert "invalid choice: 'migrate'" in capsys.readouterr().err

    def test_corrupt_store_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.db"
        bad.write_text("this is not a database")
        code = main(["engine", "stats", "--store", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "cannot" in err
        assert "not a SQLite store" in err

    def test_sqlite_store_from_other_spec_exits_two(
            self, spec_file, fig1_csvs, tmp_path, capsys):
        store_path = tmp_path / "store.db"
        assert self._ingest(spec_file, fig1_csvs, store_path) == 0
        document = json.loads(spec_file.read_text())
        document["resolution"] = {"policy": "lexicographic-min"}
        other = tmp_path / "other.json"
        other.write_text(json.dumps(document))
        capsys.readouterr()
        code = self._ingest(other, fig1_csvs, store_path)
        assert code == 2
        assert "built from spec" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_builds_server_from_spec_and_flags(self, spec_file,
                                                     monkeypatch):
        import repro.serve

        launched = {}
        monkeypatch.setattr(
            repro.serve, "serve_forever",
            lambda server: launched.setdefault("server", server),
        )
        code = main([
            "serve", "--spec", str(spec_file), "--host", "0.0.0.0",
            "--port", "0", "--max-batch", "4", "--queue-limit", "7",
        ])
        assert code == 0
        server = launched["server"]
        assert (server.host, server.port) == ("0.0.0.0", 0)
        assert server.max_batch == 4
        assert server.queue_limit == 7
        # No flags -> the spec's serve section (here: its defaults).
        monkeypatch.setattr(
            repro.serve, "serve_forever",
            lambda server: launched.__setitem__("defaulted", server),
        )
        assert main(["serve", "--spec", str(spec_file)]) == 0
        defaulted = launched["defaulted"]
        assert (defaulted.host, defaulted.port) == ("127.0.0.1", 8080)
        assert defaulted.max_batch == 16

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--max-batch", "0", "serve.max_batch: must be >= 1"),
            ("--queue-limit", "0", "serve.queue_limit: must be >= 1"),
            ("--port", "70000", "serve.port: must be <= 65535"),
        ],
    )
    def test_serve_flags_are_held_to_the_spec_checks(
            self, flag, value, message, spec_file, monkeypatch, capsys):
        """Exit 2 with the spec's own message, before any socket is bound."""
        import repro.serve

        def never(server):
            raise AssertionError("the server must not be started")

        monkeypatch.setattr(repro.serve, "serve_forever", never)
        monkeypatch.setattr(repro.serve.ResolutionServer, "start", never)
        assert main(["serve", "--spec", str(spec_file), flag, value]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_serve_max_delay_flag_is_gone(self, spec_file, capsys):
        """Nothing on the ingest path waits on a clock: no flag to set one."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--spec", str(spec_file), "--max-delay-ms", "5"])
        assert excinfo.value.code == 2
        assert "--max-delay-ms" in capsys.readouterr().err

    def test_saved_max_delay_key_is_rejected(self, spec_file, capsys):
        """A spec saved by 3.0's ``to_dict()`` carries ``max_delay_ms: 10``;
        the upgrade is to delete the key, and validate says which."""
        document = json.loads(spec_file.read_text())
        document["serve"] = {"max_batch": 16, "max_delay_ms": 10}
        spec_file.write_text(json.dumps(document))
        assert main(["spec", "validate", str(spec_file)]) == 2
        err = capsys.readouterr().err
        assert "serve: unknown key(s) ['max_delay_ms']" in err.splitlines()[0]
        assert "Traceback" not in err
        assert main(["serve", "--spec", str(spec_file)]) == 2
        assert "serve: unknown key(s) ['max_delay_ms']" in capsys.readouterr().err

    def test_serve_missing_spec_exits_two(self, tmp_path, capsys):
        code = main(["serve", "--spec", str(tmp_path / "no.json")])
        assert code == 2
        assert "not found" in capsys.readouterr().err
