"""ResolutionSpec: round trip, validation, fingerprints, builder."""

import json

import pytest

from repro.api import (
    SPEC_VERSION,
    ResolutionSpec,
    SpecBuilder,
    SpecError,
    Workspace,
)
from repro.cli import main
from repro.datagen.schemas import paper_mds


@pytest.fixture
def document(pair, target, sigma):
    return (
        SpecBuilder()
        .pair(pair)
        .target(target)
        .mds(sigma)
        .document()
    )


class TestRoundTrip:
    def test_to_dict_is_a_fixed_point(self, document):
        spec = ResolutionSpec.from_dict(document)
        canonical = spec.to_dict()
        again = ResolutionSpec.from_dict(canonical)
        assert again == spec
        assert again.to_dict() == canonical

    def test_workspace_round_trip(self, document):
        """spec → Workspace → to_dict() → spec is a fixed point."""
        workspace = Workspace.from_dict(document)
        rebuilt = ResolutionSpec.from_dict(workspace.spec.to_dict())
        assert rebuilt == workspace.spec
        assert rebuilt.fingerprint() == workspace.fingerprint

    def test_json_round_trip(self, document, tmp_path):
        spec = ResolutionSpec.from_dict(document)
        path = tmp_path / "spec.json"
        spec.save(path)
        assert ResolutionSpec.from_file(path) == spec

    def test_defaults_are_filled_in(self, document):
        spec = ResolutionSpec.from_dict(document)
        assert spec.version == SPEC_VERSION
        assert spec.blocking_backend == "sorted-neighborhood"
        assert spec.policy == "prefer-informative"
        assert spec.mode == "enforce"
        assert spec.max_rounds == 100

    def test_explicit_rcks_round_trip(self, document, target):
        document["rules"]["rcks"] = [
            [["email", "email", "="], ["tel", "phn", "="]]
        ]
        spec = ResolutionSpec.from_dict(document)
        keys = spec.explicit_rcks(target)
        assert len(keys) == 1
        assert ResolutionSpec.from_dict(spec.to_dict()) == spec

    def test_md_text_block_is_split_into_lines(self, pair, target, sigma):
        from repro.core.parser import format_md

        text = "# rules\n" + "\n".join(format_md(md) for md in sigma) + "\n"
        spec = SpecBuilder().pair(pair).target(target).mds(text).build()
        assert len(spec.mds) == len(sigma)


class TestFingerprint:
    def test_stable_across_key_order(self, document):
        shuffled = json.loads(
            json.dumps(document, sort_keys=True)
        )
        assert (
            ResolutionSpec.from_dict(shuffled).fingerprint()
            == ResolutionSpec.from_dict(document).fingerprint()
        )

    def test_changes_on_material_change(self, document):
        base = ResolutionSpec.from_dict(document).fingerprint()
        document["rules"]["top_k"] = 3
        assert ResolutionSpec.from_dict(document).fingerprint() != base


class TestValidation:
    def test_unknown_version_is_actionable(self, document):
        document["version"] = 99
        with pytest.raises(SpecError) as excinfo:
            ResolutionSpec.from_dict(document)
        assert "unsupported spec version 99" in str(excinfo.value)
        assert str(SPEC_VERSION) in str(excinfo.value)

    def test_unknown_metric_is_actionable(self, document):
        document["rules"]["mds"] = [
            "credit[FN] ~nosuch(0.8) billing[FN] -> "
            "credit[LN] <=> billing[LN]"
        ]
        with pytest.raises(SpecError) as excinfo:
            ResolutionSpec.from_dict(document)
        message = str(excinfo.value)
        assert "nosuch" in message
        assert "registered metrics" in message  # names what IS available

    def test_unknown_metric_binding_target(self, document):
        document["metrics"] = {"edit": "nosuch"}
        with pytest.raises(SpecError, match="registered metrics"):
            ResolutionSpec.from_dict(document)

    def test_metric_binding_enables_alias_operator(self, document):
        document["metrics"] = {"edit": "dl"}
        document["rules"]["mds"] = [
            "credit[FN] ~edit(0.8) billing[FN] -> "
            "credit[LN] <=> billing[LN]"
        ]
        spec = ResolutionSpec.from_dict(document)
        assert spec.build_registry().resolve("edit(0.8)")("Mark", "Marx")

    def test_unknown_blocking_backend_is_actionable(self, document):
        document["blocking"] = {"backend": "bogus"}
        with pytest.raises(SpecError) as excinfo:
            ResolutionSpec.from_dict(document)
        assert "sorted-neighborhood" in str(excinfo.value)

    @pytest.mark.parametrize("window", [0, 1, -5])
    def test_window_below_two_is_actionable(self, document, window):
        # A window of 0 or 1 can never pair two records; accepting it
        # silently produced empty candidate sets.
        document["blocking"] = {
            "backend": "sorted-neighborhood",
            "window": window,
        }
        errors = ResolutionSpec.validate_document(document)
        assert any("blocking.window" in error for error in errors)
        assert any("at least 2" in error for error in errors)
        with pytest.raises(SpecError, match="blocking.window"):
            ResolutionSpec.from_dict(document)

    @pytest.mark.parametrize("window", ["ten", None, 2.5, True])
    def test_non_int_window_rejected(self, document, window):
        document["blocking"] = {
            "backend": "sorted-neighborhood",
            "window": window,
        }
        errors = ResolutionSpec.validate_document(document)
        assert any("blocking.window" in error for error in errors)

    def test_window_two_is_the_smallest_legal(self, document):
        document["blocking"] = {
            "backend": "sorted-neighborhood",
            "window": 2,
        }
        assert ResolutionSpec.from_dict(document).window == 2

    def test_unknown_policy_and_mode(self, document):
        document["resolution"] = {"policy": "coin-flip"}
        document["execution"] = {"mode": "psychic"}
        errors = ResolutionSpec.validate_document(document)
        assert any("coin-flip" in error for error in errors)
        assert any("psychic" in error for error in errors)

    def test_removed_kernel_knob_is_an_unknown_key(self, document):
        # There is one chase kernel; the knob that chose between two is
        # rejected like any other misspelt key (the benchmark's strategy
        # probe relies on this to report the strategy as gone).
        document["execution"] = {"factorised": False}
        with pytest.raises(SpecError) as excinfo:
            ResolutionSpec.from_dict(document)
        assert list(excinfo.value.errors) == [
            "execution: unknown key(s) ['factorised']"
        ]

    @pytest.mark.parametrize("value", [1, 2, 0])
    def test_removed_workers_key_is_an_unknown_key(self, document, value):
        # There is one executor.  Any value is rejected — also the 1 that
        # every spec saved by an earlier ``to_dict()`` carries.
        document["execution"] = {"mode": "enforce", "workers": value}
        with pytest.raises(SpecError) as excinfo:
            ResolutionSpec.from_dict(document)
        assert excinfo.value.errors[0] == (
            "execution: unknown key(s) ['workers']"
        )

    def test_all_errors_reported_at_once(self, document):
        document["version"] = 2
        document["blocking"] = {"backend": "bogus"}
        document["resolution"] = {"policy": "coin-flip"}
        document["rules"]["mds"] = ["not an md"]
        errors = ResolutionSpec.validate_document(document)
        assert len(errors) >= 4

    def test_bad_md_reports_line_position(self, document):
        document["rules"]["mds"] = list(document["rules"]["mds"]) + ["junk"]
        errors = ResolutionSpec.validate_document(document)
        assert any("rules.mds[3]" in error for error in errors)

    def test_unknown_sections_rejected(self, document):
        document["blcking"] = {"backend": "hash"}
        with pytest.raises(SpecError, match="blcking"):
            ResolutionSpec.from_dict(document)

    def test_rules_require_mds_or_rcks(self, document):
        document["rules"] = {"mds": []}
        with pytest.raises(SpecError, match="at least one MD"):
            ResolutionSpec.from_dict(document)

    @pytest.mark.parametrize("mds", ([], None))
    def test_an_empty_rcks_list_is_rejected(self, document, mds):
        # An empty list pins no key, so nothing could ever match under
        # it: one error, whether or not there are MDs to deduce from.
        if mds is not None:
            document["rules"]["mds"] = mds
        document["rules"]["rcks"] = []
        assert ResolutionSpec.validate_document(document) == [
            "rules.rcks: an empty list pins no key; pin at least one key, "
            "or omit 'rcks' to deduce them"
        ]

    def test_bad_key_pairs_rejected(self, document):
        document["blocking"] = {
            "backend": "hash",
            "key_pairs": [["FN", "nope"]],
        }
        with pytest.raises(SpecError, match="key_pairs"):
            ResolutionSpec.from_dict(document)

    def test_encode_names_an_attribute_of_either_relation(self, document):
        # FN is on both sides, post on billing only; nope on neither.
        document["blocking"] = {"encode": ["FN", "post", "nope"]}
        assert ResolutionSpec.validate_document(document) == [
            "blocking.encode: 'nope' is an attribute of neither credit nor billing"
        ]

    def test_spec_validate_reports_an_unknown_encode_name(
        self, document, tmp_path, capsys
    ):
        document["blocking"] = {"encode": ["nope"]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(document))
        assert main(["spec", "validate", str(path)]) == 2
        assert "error: blocking.encode: 'nope'" in capsys.readouterr().err

    def test_not_a_dict(self):
        errors = ResolutionSpec.validate_document([1, 2, 3])
        assert errors and "object" in errors[0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="not found"):
            ResolutionSpec.from_file(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SpecError, match="invalid JSON"):
            ResolutionSpec.from_file(path)


class TestBuilder:
    def test_builder_matches_hand_written_document(self, pair, target):
        sigma = paper_mds(pair)
        built = (
            SpecBuilder()
            .pair(pair)
            .target(target)
            .mds(sigma)
            .blocking("hash", key_length=2)
            .resolution("first-non-null")
            .execution(mode="direct", top_k=3, max_rounds=7)
            .build()
        )
        assert built.blocking_backend == "hash"
        assert built.key_length == 2
        assert built.policy == "first-non-null"
        assert built.mode == "direct"
        assert built.top_k == 3
        assert built.max_rounds == 7
        # And the round trip still holds for builder output.
        assert ResolutionSpec.from_dict(built.to_dict()) == built

    def test_builder_validates(self, pair, target):
        with pytest.raises(SpecError):
            SpecBuilder().pair(pair).target(target).mds(["junk"]).build()

    def test_builder_workspace_shortcut(self, pair, target):
        workspace = (
            SpecBuilder()
            .pair(pair)
            .target(target)
            .mds(paper_mds(pair))
            .workspace()
        )
        assert isinstance(workspace, Workspace)
        assert workspace.deduce()


class TestPersistenceSection:
    def test_defaults_to_memory(self, document):
        spec = ResolutionSpec.from_dict(document)
        assert spec.persistence_backend == "memory"
        assert spec.persistence_path is None

    def test_round_trips(self, document):
        document["persistence"] = {"backend": "sqlite", "path": "store.db"}
        spec = ResolutionSpec.from_dict(document)
        assert spec.persistence_backend == "sqlite"
        assert spec.persistence_path == "store.db"
        canonical = spec.to_dict()
        assert canonical["persistence"] == {
            "backend": "sqlite", "path": "store.db",
        }
        assert ResolutionSpec.from_dict(canonical) == spec

    def test_unknown_backend_is_actionable(self, document):
        document["persistence"] = {"backend": "postgres"}
        with pytest.raises(SpecError) as excinfo:
            ResolutionSpec.from_dict(document)
        message = str(excinfo.value)
        assert "persistence.backend" in message
        assert "sqlite" in message

    def test_unknown_key_rejected(self, document):
        document["persistence"] = {"backend": "memory", "wal": True}
        with pytest.raises(SpecError, match="unknown key"):
            ResolutionSpec.from_dict(document)

    def test_sqlite_requires_a_path(self, document):
        document["persistence"] = {"backend": "sqlite"}
        with pytest.raises(SpecError, match="persistence.path"):
            ResolutionSpec.from_dict(document)

    def test_never_enters_the_fingerprint(self, document):
        """Where the state lives never changes what the state is, so a
        store built under one backend must restore under the other."""
        base = ResolutionSpec.from_dict(document).fingerprint()
        document["persistence"] = {"backend": "sqlite", "path": "x.db"}
        assert ResolutionSpec.from_dict(document).fingerprint() == base

    def test_builder_sets_section(self, pair, target, sigma):
        spec = (
            SpecBuilder()
            .pair(pair)
            .target(target)
            .mds(sigma)
            .persistence("sqlite", "store.db")
            .build()
        )
        assert spec.persistence_backend == "sqlite"
        assert spec.persistence_path == "store.db"
