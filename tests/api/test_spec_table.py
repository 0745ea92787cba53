"""The option table is the contract.

Every tuning option of a :class:`ResolutionSpec` is declared once, on
its dataclass field (``repro.api.spec._option``): document path, default
and check.  This module walks ``dataclasses.fields(ResolutionSpec)`` and
holds parse, ``to_dict``, the fingerprint and the CLI's tuning flags to
that one declaration — a new option gets all of it tested by being
declared.
"""

import copy
import dataclasses
import json

import pytest

from repro.api import ResolutionSpec, SpecBuilder, SpecError, Workspace
from repro.api.spec import DEPLOYMENT_SECTIONS, OPTION_SECTIONS, OPTIONS
from repro.cli import _TUNING_FLAGS, build_parser, _effective_spec, main

#: The option fields that live in all-option sections (``rules.top_k`` is
#: declared the same way but sits beside the hand-parsed rules keys).
SECTION_OPTIONS = [
    field
    for field in dataclasses.fields(ResolutionSpec)
    if "path" in field.metadata and field.metadata["path"] != "rules.top_k"
]
IDS = [field.metadata["path"] for field in SECTION_OPTIONS]

#: A legal non-default value per option, to move it off its default.
OTHER_VALUES = {
    "blocking.backend": "hash",
    "blocking.window": 7,
    "blocking.key_length": 2,
    "blocking.encode": ["LN"],
    "blocking.key_pairs": [["LN", "LN"]],
    "resolution.policy": "first-non-null",
    "execution.mode": "direct",
    "execution.max_rounds": 9,
    "observability.enabled": True,
    "observability.trace": "trace.json",
    "persistence.backend": "sqlite",
    "persistence.path": "store.db",
    "serve.host": "0.0.0.0",
    "serve.port": 0,
    "serve.max_batch": 3,
    "serve.queue_limit": 5,
}

#: The fingerprint of the fixture document with each option at its
#: ``OTHER_VALUES`` entry, measured at 10.0.0, before 11.0 retired four
#: options: a retirement moves no fingerprint, on or off the defaults.
PINNED_FINGERPRINTS = {
    "blocking.backend": "e3506776a30a5c35",
    "blocking.window": "56c1eab7e85e9e1e",
    "blocking.key_length": "ad67d64b8e07f5d9",
    "blocking.encode": "7d848396b6161b70",
    "blocking.key_pairs": "332d7b8be3a2f901",
    "resolution.policy": "2f93e289ddd31a60",
    "execution.mode": "e50aa0e9ee7dc150",
    "execution.max_rounds": "ebe0aa7d3f4ce574",
    "observability.enabled": "bb08144399820b1a",
    "observability.trace": "bb08144399820b1a",
    "persistence.backend": "bb08144399820b1a",
    "persistence.path": "bb08144399820b1a",
    "serve.host": "bb08144399820b1a",
    "serve.port": "bb08144399820b1a",
    "serve.max_batch": "bb08144399820b1a",
    "serve.queue_limit": "bb08144399820b1a",
}

ONE_OF = [
    path for path, field in OPTIONS.items() if "choices" in field.metadata["params"]
]


@pytest.fixture
def document(pair, target, sigma):
    return SpecBuilder().pair(pair).target(target).mds(sigma).document()


def _with(document, path, value):
    document = copy.deepcopy(document)
    section, key = path.split(".")
    body = document.setdefault(section, {})
    body[key] = value
    if path == "persistence.backend" and value == "sqlite":
        body.setdefault("path", "store.db")  # the cross-field rule
    return document


def _at(document, path):
    section, key = path.split(".")
    return document[section][key]


def test_the_table_covers_the_six_option_sections():
    assert list(OPTION_SECTIONS) == [
        "blocking", "resolution", "execution",
        "observability", "persistence", "serve",
    ]
    assert len(SECTION_OPTIONS) == 16
    assert len(ONE_OF) == 4
    assert set(OTHER_VALUES) == set(IDS) == set(PINNED_FINGERPRINTS)
    assert set(DEPLOYMENT_SECTIONS) <= set(OPTION_SECTIONS)
    assert set(OPTIONS) == set(IDS) | {"rules.top_k"}


@pytest.mark.parametrize("field", SECTION_OPTIONS, ids=IDS)
class TestEveryOption:
    def test_serialised_at_its_path(self, field, document):
        path = field.metadata["path"]
        spec = ResolutionSpec.from_dict(_with(document, path, OTHER_VALUES[path]))
        assert _at(spec.to_dict(), path) == OTHER_VALUES[path]
        assert json.loads(spec.to_json()) == spec.to_dict()

    def test_default_fills_an_absent_key_or_section(self, field, document):
        path = field.metadata["path"]
        section, key = path.split(".")
        expected = field.default
        if isinstance(expected, tuple):
            expected = list(expected)
        absent_section = copy.deepcopy(document)
        absent_section.pop(section, None)
        absent_key = copy.deepcopy(document)
        absent_key[section] = {}
        for candidate in (absent_section, absent_key):
            spec = ResolutionSpec.from_dict(candidate)
            assert getattr(spec, field.name) == field.default
            assert _at(spec.to_dict(), path) == expected

    def test_unknown_sibling_key_is_rejected(self, field, document):
        path = field.metadata["path"]
        section = path.split(".")[0]
        broken = _with(document, path, OTHER_VALUES[path])
        broken[section]["no_such_key"] = 1
        assert f"{section}: unknown key(s) ['no_such_key']" in (
            ResolutionSpec.validate_document(broken)
        )

    def test_non_object_section_is_rejected(self, field, document):
        section = field.metadata["path"].split(".")[0]
        broken = copy.deepcopy(document)
        broken[section] = [1, 2]
        errors = ResolutionSpec.validate_document(broken)
        assert any(
            error.startswith(f"{section}: expected an object") for error in errors
        )

    def test_round_trip_is_a_fixed_point(self, field, document):
        path = field.metadata["path"]
        spec = ResolutionSpec.from_dict(_with(document, path, OTHER_VALUES[path]))
        again = ResolutionSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.to_dict() == spec.to_dict()

    def test_moves_the_fingerprint_iff_not_deployment_only(self, field, document):
        path = field.metadata["path"]
        base = ResolutionSpec.from_dict(document)
        moved = ResolutionSpec.from_dict(_with(document, path, OTHER_VALUES[path]))
        deployment_only = path.split(".")[0] in DEPLOYMENT_SECTIONS
        assert (moved.fingerprint() == base.fingerprint()) is deployment_only

    def test_fingerprint_is_pinned_off_the_default(self, field, document):
        path = field.metadata["path"]
        spec = ResolutionSpec.from_dict(_with(document, path, OTHER_VALUES[path]))
        assert spec.fingerprint() == PINNED_FINGERPRINTS[path]


# ----------------------------------------------------------------------
# The options 11.0 retired are unknown keys, at any value
# ----------------------------------------------------------------------

#: Each retired option -> the default a 10.x spec saved, and a value off it.
RETIRED = {
    "execution.cache": (True, False),
    "execution.cache_limit": (1048576, 9),
    "execution.max_cascade": (256, 9),
    "observability.trace_format": ("chrome", "jsonl"),
}


@pytest.mark.parametrize(
    "path, value",
    [(path, value) for path, values in RETIRED.items() for value in values],
)
def test_a_retired_key_is_refused_at_any_value(path, value, document):
    section, key = path.split(".")
    message = f"{section}: unknown key(s) ['{key}']"
    broken = _with(document, path, value)
    assert message in ResolutionSpec.validate_document(broken)
    with pytest.raises(SpecError) as excinfo:
        ResolutionSpec.from_dict(broken)
    assert message in excinfo.value.errors


@pytest.mark.parametrize("path", RETIRED)
def test_a_retired_key_is_no_option_and_the_builder_refuses_it(
    path, pair, target, sigma
):
    assert path not in OPTIONS
    section, key = path.split(".")
    builder = SpecBuilder().pair(pair).target(target).mds(sigma)
    getattr(builder, section)(**{key: RETIRED[path][0]})
    with pytest.raises(SpecError) as excinfo:
        builder.build()
    assert f"{section}: unknown key(s) ['{key}']" in excinfo.value.errors


# ----------------------------------------------------------------------
# Outside input can neither crash a check nor slip past one
# ----------------------------------------------------------------------


@pytest.mark.parametrize("value", [[], {}, 5, None, ["x"]], ids=repr)
@pytest.mark.parametrize("path", ONE_OF)
def test_one_of_options_reject_any_json_value_by_path(path, value, document):
    broken = copy.deepcopy(document)
    section, key = path.split(".")
    broken.setdefault(section, {})[key] = value
    with pytest.raises(SpecError) as excinfo:
        ResolutionSpec.from_dict(broken)
    assert any(
        error.startswith(f"{path}: ") and "choose one of" in error
        for error in excinfo.value.errors
    )


def test_spec_validate_reports_an_unhashable_enum_value(document, tmp_path, capsys):
    document["resolution"] = {"policy": ["x"]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(document))
    assert main(["spec", "validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error: resolution.policy:" in err
    assert "Traceback" not in err


class TestEmptyKeyPairsIsNull:
    """Every layer tests ``if key_pairs:`` — ``[]`` derives the keys from
    the RCKs exactly like ``null``, so it must fingerprint like it."""

    def test_same_canonical_document_and_fingerprint(self, document):
        null = ResolutionSpec.from_dict(_with(document, "blocking.key_pairs", None))
        empty = ResolutionSpec.from_dict(_with(document, "blocking.key_pairs", []))
        assert empty.key_pairs is None
        assert empty.to_dict() == null.to_dict()
        assert empty.to_dict()["blocking"]["key_pairs"] is None
        assert empty.fingerprint() == null.fingerprint()
        assert empty == null

    def test_a_store_stamped_under_one_opens_under_the_other(
        self, document, tmp_path
    ):
        for name, first, second in (("a.db", [], None), ("b.db", None, [])):
            durable = {"backend": "sqlite", "path": str(tmp_path / name)}
            stamped = _with(document, "blocking.key_pairs", first)
            stamped["persistence"] = durable
            store = Workspace(stamped).stream().store
            fingerprint = store.spec_fingerprint
            store.close()
            reopened = _with(document, "blocking.key_pairs", second)
            reopened["persistence"] = durable
            store = Workspace(reopened).stream().store
            assert store.spec_fingerprint == fingerprint
            store.close()


# ----------------------------------------------------------------------
# The CLI's tuning flags are rows of the same table
# ----------------------------------------------------------------------


@pytest.fixture
def spec_file(document, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(document))
    return path


def _flag_actions():
    """Every tuning-flag action of every subcommand parser."""
    pending, actions = [build_parser()], []
    while pending:
        parser = pending.pop()
        for action in parser._actions:
            if action.choices and isinstance(action.choices, dict):
                pending.extend(action.choices.values())
            elif set(action.option_strings) & set(_TUNING_FLAGS):
                actions.append(action)
    return actions


def test_every_flag_row_names_an_existing_option():
    for flag, (path, what) in _TUNING_FLAGS.items():
        assert path in OPTIONS, flag
        assert what
    actions = _flag_actions()
    assert {flag for action in actions for flag in action.option_strings} == set(
        _TUNING_FLAGS
    )
    for action in actions:
        option = OPTIONS[action.dest]
        assert action.default is None  # "not typed" — the spec's value stands
        assert f"the spec's {action.dest}" in action.help
        assert action.choices == option.metadata["params"].get("choices")


_MATCH = ["match", "--left", "l.csv", "--right", "r.csv"]

#: flag -> (a subcommand carrying it, a legal value off the default).
FLAG_USES = {
    "-m": (["deduce"], "2"),
    "--top-k": (["plan", "explain"], "2"),
    "--window": (_MATCH, "4"),
    "--backend": (["plan", "explain"], "hash"),
    "--trace": (_MATCH, "run-trace.json"),
    "--host": (["serve"], "0.0.0.0"),
    "--port": (["serve"], "0"),
    "--max-batch": (["serve"], "3"),
    "--queue-limit": (["serve"], "5"),
}


@pytest.mark.parametrize("flag", sorted(_TUNING_FLAGS))
def test_a_typed_flag_wins_over_the_file(flag, spec_file):
    option = OPTIONS[_TUNING_FLAGS[flag][0]]
    command, text = FLAG_USES[flag]
    args = build_parser().parse_args([*command, "--spec", str(spec_file), flag, text])
    from_file = ResolutionSpec.from_file(spec_file)
    effective = _effective_spec(args)
    expected = int(text) if isinstance(option.default, int) else text
    assert getattr(effective, option.name) == expected
    # ...and nothing else moved.
    assert {
        field.name
        for field in dataclasses.fields(ResolutionSpec)
        if getattr(effective, field.name) != getattr(from_file, field.name)
    } == {option.name}


def test_no_flag_typed_uses_the_file_verbatim(spec_file):
    args = build_parser().parse_args(["serve", "--spec", str(spec_file)])
    assert _effective_spec(args) == ResolutionSpec.from_file(spec_file)
