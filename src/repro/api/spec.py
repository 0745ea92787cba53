"""The versioned :class:`ResolutionSpec`: one declarative front door.

The paper's thesis is that matching rules are *declarative* artifacts;
this module extends that to the whole resolution task.  A spec is one
JSON/dict document — schema pair, target lists, MD text, optional
explicit RCKs, metric bindings, blocking backend and parameters, the
value-choice policy, and execution options — with a full
parse → validate → serialize round trip:

* :meth:`ResolutionSpec.from_dict` parses and validates, raising a
  :class:`SpecError` that carries **every** problem found, not just the
  first;
* :meth:`ResolutionSpec.to_dict` emits the canonical document, a fixed
  point of the round trip (``from_dict(spec.to_dict()) == spec``);
* :meth:`ResolutionSpec.fingerprint` hashes the canonical document —
  engine stores embed it so resuming a store under a different spec is
  rejected instead of silently mis-matching.

A :class:`~repro.api.workspace.Workspace` built from the spec compiles
it through the :mod:`repro.plan` kernel exactly once and executes it in
any mode (batch direct, batch enforcement, streaming).  The
:class:`SpecBuilder` offers the same document fluently from Python.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import Field, dataclass, field, fields
from pathlib import Path
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.core.md import MatchingDependency
from repro.core.parser import format_md, parse_md
from repro.core.rck import RelativeKey
from repro.core.schema import ComparableLists, RelationSchema, SchemaPair
from repro.core.semantics import ValueResolver, prefer_informative
from repro.metrics.registry import (
    DEFAULT_REGISTRY,
    MetricRegistry,
    default_registry,
)
from repro.plan.blocking import DEFAULT_ENCODED_ATTRIBUTES

#: Current specification format version.
SPEC_VERSION = 1

#: Backends a spec may name in its ``blocking`` section.
BLOCKING_BACKENDS = ("sorted-neighborhood", "hash")

#: Execution modes a spec may name in its ``execution`` section.
EXECUTION_MODES = ("enforce", "direct")

#: Store backends a spec may name in its ``persistence`` section.
PERSISTENCE_BACKENDS = ("memory", "sqlite")

#: Sections parsed by hand; every other section of a v1 document is made
#: of declared options only (``OPTION_SECTIONS``, below the dataclass).
_CORE_SECTIONS = ("version", "schema", "target", "rules", "metrics")

#: Sections that shape a deployment, never a result: they stay out of
#: :meth:`ResolutionSpec.fingerprint` (which says why, section by section).
DEPLOYMENT_SECTIONS = ("observability", "persistence", "serve")


def _first_non_null(values: Sequence[object]) -> object:
    for value in values:
        if value is not None:
            return value
    return None


def _lexicographic_min(values: Sequence[object]) -> object:
    non_null = [value for value in values if value is not None]
    return min(non_null, key=str) if non_null else None


def _lexicographic_max(values: Sequence[object]) -> object:
    non_null = [value for value in values if value is not None]
    return max(non_null, key=str) if non_null else None


#: Named value-choice policies a spec's ``resolution.policy`` may select.
#: The policy decides which value a merged cell class (or a grown stream
#: cluster) takes; the matching operator itself only requires the cells
#: to be *identified* (Example 2.2), so this is configuration, not
#: semantics.
VALUE_POLICIES: Dict[str, ValueResolver] = {
    "prefer-informative": prefer_informative,
    "first-non-null": _first_non_null,
    "lexicographic-min": _lexicographic_min,
    "lexicographic-max": _lexicographic_max,
}


class SpecError(ValueError):
    """An invalid :class:`ResolutionSpec` document.

    ``errors`` carries *every* validation failure found, so a user fixes
    a spec in one round trip instead of one error per attempt.
    """

    def __init__(self, errors: Sequence[str]) -> None:
        self.errors: Tuple[str, ...] = tuple(errors) or (
            "invalid resolution spec",
        )
        super().__init__("; ".join(self.errors))


# ----------------------------------------------------------------------
# Option checks: ``check(value, **params)`` returns the normalized value
# or raises ``ValueError`` saying what it expected.  Each tests the type
# first, so no JSON value can crash one.
# ----------------------------------------------------------------------


def _integer(
    value: object, minimum: int, maximum: Optional[int] = None, why: str = ""
) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"expected an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"must be >= {minimum}, got {value}{why}")
    if maximum is not None and value > maximum:
        raise ValueError(f"must be <= {maximum}, got {value}")
    return value


def _one_of(value: object, choices: Sequence[str]) -> str:
    if not isinstance(value, str) or value not in choices:
        raise ValueError(
            f"unknown value {value!r}; choose one of {list(choices)}"
        )
    return value


def _boolean(value: object) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _optional_path(value: object) -> Optional[str]:
    if value is not None and not isinstance(value, str):
        raise ValueError(f"expected null or a file path string, got {value!r}")
    return value


def _non_empty_string(value: object) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"expected a non-empty string, got {value!r}")
    return value


def _string_list(value: object) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise ValueError(f"expected a list of strings, got {value!r}")
    return tuple(value)


def _attribute_pairs(value: object) -> Optional[Tuple[Tuple[str, str], ...]]:
    if value is None:
        return None
    try:
        pairs = tuple((str(l), str(r)) for l, r in value)
    except (TypeError, ValueError):
        raise ValueError(
            f"expected [left, right] attribute pairs, got {value!r}"
        ) from None
    # Every layer reads "no pairs" as "derive the keys from the RCKs",
    # so ``[]`` is ``null`` here too: one meaning, one fingerprint.
    return pairs or None


def _option(path: str, default, check, **params):
    """A spec option, declared once on its dataclass field.

    ``path`` is where the option lives in the document
    (``"serve.max_batch"``), ``default`` what an absent key means and
    ``check(value, **params)`` its validation.  Parsing, ``to_dict``,
    the fingerprint, :class:`SpecBuilder` and the CLI's tuning flags all
    read the option off the field, so none of them can disagree about
    its key, default or legal values.
    """
    return field(
        default=default,
        metadata={"path": path, "check": check, "params": params},
    )


# ----------------------------------------------------------------------
# Validation helpers (each appends to a shared error list)
# ----------------------------------------------------------------------


def _checked(errors: List[str], where: str, check, value: object, **params):
    """``check(value, **params)``; a refusal is filed under ``where``
    and yields ``None``."""
    try:
        return check(value, **params)
    except ValueError as error:
        errors.append(f"{where}: {error}")
        return None


def _option_value(
    errors: List[str], section: Dict[str, object], option: Field
) -> object:
    """``option`` as its section object gives it: the declared default
    when the key is absent, the checked value otherwise."""
    path = option.metadata["path"]
    key = path.rpartition(".")[2]
    if key not in section:
        return option.default
    return _checked(
        errors, path, option.metadata["check"], section[key],
        **option.metadata["params"],
    )


def _check_str_list(errors: List[str], where: str, value: object) -> bool:
    return _checked(errors, where, _string_list, value) is not None


def _plain(value: object) -> object:
    """The spec's frozen tuples as the JSON lists they were parsed from."""
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


def _schema_from(errors: List[str], where: str, section: object):
    if not isinstance(section, dict):
        errors.append(
            f"{where}: expected an object with 'name' and 'attributes'"
        )
        return None
    unknown = set(section) - {"name", "attributes"}
    if unknown:
        errors.append(f"{where}: unknown key(s) {sorted(unknown)}")
    name = section.get("name")
    attributes = section.get("attributes")
    if not isinstance(name, str) or not name:
        errors.append(f"{where}.name: expected a non-empty string")
        return None
    if not _check_str_list(errors, f"{where}.attributes", attributes):
        return None
    try:
        return RelationSchema(name, attributes)
    except ValueError as error:
        errors.append(f"{where}: {error}")
        return None


def _registry_from(errors: List[str], bindings: object) -> MetricRegistry:
    """The registry the spec's metric bindings describe (best effort)."""
    if not isinstance(bindings, dict):
        errors.append(
            f"metrics: expected an object mapping alias names to "
            f"registered metric names, got {bindings!r}"
        )
        return DEFAULT_REGISTRY
    if not bindings:
        return DEFAULT_REGISTRY
    registry = default_registry()
    for alias in sorted(bindings):
        existing = bindings[alias]
        if not isinstance(alias, str) or not alias.isidentifier():
            errors.append(
                f"metrics: alias {alias!r} is not a valid operator name"
            )
            continue
        if not isinstance(existing, str):
            errors.append(
                f"metrics.{alias}: expected a metric name string, "
                f"got {existing!r}"
            )
            continue
        try:
            registry.alias(alias, existing)
        except KeyError as error:
            errors.append(f"metrics.{alias}: {str(error).strip(chr(34))}")
    return registry


def _check_operators(
    errors: List[str],
    where: str,
    atoms,
    registry: MetricRegistry,
) -> None:
    for atom in atoms:
        operator = atom.operator.name
        try:
            registry.resolve(operator)
        except (KeyError, ValueError) as error:
            errors.append(f"{where}: {str(error).strip(chr(34))}")


@dataclass(frozen=True)
class ResolutionSpec:
    """A validated, canonical entity-resolution specification.

    Construct with :meth:`from_dict` / :meth:`from_json` /
    :meth:`from_file` or through :class:`SpecBuilder`; the frozen
    dataclass holds the normalized document (defaults filled in), and
    :meth:`to_dict` is its inverse.
    """

    version: int
    left_name: str
    left_attributes: Tuple[str, ...]
    right_name: str
    right_attributes: Tuple[str, ...]
    target_left: Tuple[str, ...]
    target_right: Tuple[str, ...]
    mds: Tuple[str, ...]
    rcks: Optional[Tuple[Tuple[Tuple[str, str, str], ...], ...]] = None
    top_k: int = _option("rules.top_k", 5, _integer, minimum=1)
    metrics: Tuple[Tuple[str, str], ...] = ()
    blocking_backend: str = _option(
        "blocking.backend", "sorted-neighborhood", _one_of, choices=BLOCKING_BACKENDS
    )
    # A window of 0 or 1 is legal at the backend level but can never
    # pair two records — a spec declaring one would silently resolve
    # nothing, so validation refuses it.
    window: int = _option(
        "blocking.window", 10, _integer, minimum=2,
        why=" — a sorted-neighborhood window needs at least 2 slots to "
        "ever pair two records",
    )
    key_length: int = _option("blocking.key_length", 1, _integer, minimum=1)
    encode: Tuple[str, ...] = _option("blocking.encode", DEFAULT_ENCODED_ATTRIBUTES, _string_list)
    key_pairs: Optional[Tuple[Tuple[str, str], ...]] = _option(
        "blocking.key_pairs", None, _attribute_pairs
    )
    policy: str = _option(
        "resolution.policy", "prefer-informative", _one_of, choices=tuple(sorted(VALUE_POLICIES))
    )
    mode: str = _option("execution.mode", "enforce", _one_of, choices=EXECUTION_MODES)
    max_rounds: int = _option("execution.max_rounds", 100, _integer, minimum=1)
    obs_enabled: bool = _option("observability.enabled", False, _boolean)
    trace_path: Optional[str] = _option("observability.trace", None, _optional_path)
    persistence_backend: str = _option(
        "persistence.backend", "memory", _one_of, choices=PERSISTENCE_BACKENDS
    )
    persistence_path: Optional[str] = _option("persistence.path", None, _optional_path)
    serve_host: str = _option("serve.host", "127.0.0.1", _non_empty_string)
    # Port 0 is legal: bind an ephemeral port (tests do this).
    serve_port: int = _option("serve.port", 8080, _integer, minimum=0, maximum=65535)
    serve_max_batch: int = _option("serve.max_batch", 16, _integer, minimum=1)
    serve_queue_limit: int = _option("serve.queue_limit", 1024, _integer, minimum=1)
    # Not an option (4.0 removed the batching linger): the frozen
    # bench/serve.py::_timings still reads the linger here, and 0 is the
    # truth.  ROADMAP measuring-stick (b) deletes that read and this line.
    serve_max_delay_ms: ClassVar[int] = 0
    _fingerprint: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Parsing and validation
    # ------------------------------------------------------------------

    @classmethod
    def validate_document(cls, document: object) -> List[str]:
        """Every problem in ``document``, as actionable messages.

        Returns an empty list exactly when :meth:`from_dict` would
        succeed — ``repro spec validate`` prints this list.
        """
        _, errors = cls._parse(document)
        return errors

    @classmethod
    def from_dict(cls, document: object) -> "ResolutionSpec":
        """Parse and validate a spec document; all errors at once."""
        spec, errors = cls._parse(document)
        if errors:
            raise SpecError(errors)
        assert spec is not None
        return spec

    @classmethod
    def from_json(cls, text: str) -> "ResolutionSpec":
        """Parse a spec from its JSON text."""
        try:
            document = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError([f"invalid JSON: {error}"]) from None
        return cls.from_dict(document)

    @classmethod
    def from_file(cls, path) -> "ResolutionSpec":
        """Read and validate a spec JSON file."""
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise SpecError([f"spec file not found: {path}"]) from None
        try:
            return cls.from_json(text)
        except SpecError as error:
            raise SpecError(
                [f"{path}: {message}" for message in error.errors]
            ) from None

    @classmethod
    def _parse(cls, document: object):
        errors: List[str] = []
        if not isinstance(document, dict):
            return None, [f"expected a JSON object, got {type(document).__name__}"]

        sections = _CORE_SECTIONS + tuple(OPTION_SECTIONS)
        unknown = set(document) - set(sections)
        if unknown:
            errors.append(
                f"unknown section(s) {sorted(unknown)}; "
                f"a v{SPEC_VERSION} spec may contain {list(sections)}"
            )

        version = document.get("version")
        if version != SPEC_VERSION:
            errors.append(
                f"unsupported spec version {version!r}; "
                f"this build reads version {SPEC_VERSION} "
                f"(add \"version\": {SPEC_VERSION})"
            )

        # -- schema -----------------------------------------------------
        schema = document.get("schema")
        left = right = None
        if not isinstance(schema, dict):
            errors.append(
                "missing or invalid 'schema' section; expected "
                "{\"left\": {\"name\", \"attributes\"}, \"right\": {...}}"
            )
        else:
            left = _schema_from(errors, "schema.left", schema.get("left"))
            right = _schema_from(errors, "schema.right", schema.get("right"))
        pair = SchemaPair(left, right) if left and right else None

        # -- target -----------------------------------------------------
        target_section = document.get("target")
        target = None
        target_left: Tuple[str, ...] = ()
        target_right: Tuple[str, ...] = ()
        if not isinstance(target_section, dict):
            errors.append(
                "missing or invalid 'target' section; expected "
                "{\"left\": [...], \"right\": [...]}"
            )
        else:
            ok = _check_str_list(
                errors, "target.left", target_section.get("left")
            ) and _check_str_list(
                errors, "target.right", target_section.get("right")
            )
            if ok:
                target_left = tuple(target_section["left"])
                target_right = tuple(target_section["right"])
                if pair is not None:
                    try:
                        target = ComparableLists(pair, target_left, target_right)
                    except ValueError as error:
                        errors.append(f"target: {error}")

        # -- metrics (needed to validate rule operators) ---------------
        registry = _registry_from(errors, document.get("metrics", {}))

        # -- rules ------------------------------------------------------
        rules = document.get("rules")
        md_lines: Tuple[str, ...] = ()
        rck_triples = None
        top_k = None
        if not isinstance(rules, dict):
            errors.append(
                "missing or invalid 'rules' section; expected "
                "{\"mds\": [...], \"rcks\": null | [...], \"top_k\": 5}"
            )
        else:
            unknown_rules = set(rules) - {"mds", "rcks", "top_k"}
            if unknown_rules:
                errors.append(f"rules: unknown key(s) {sorted(unknown_rules)}")
            raw_mds = rules.get("mds", [])
            if isinstance(raw_mds, str):
                raw_mds = [
                    line.strip()
                    for line in raw_mds.splitlines()
                    if line.strip() and not line.strip().startswith("#")
                ]
            if _check_str_list(errors, "rules.mds", raw_mds):
                md_lines = tuple(raw_mds)
                if pair is not None:
                    for position, line in enumerate(md_lines):
                        try:
                            dependency = parse_md(line, pair)
                        except ValueError as error:
                            errors.append(f"rules.mds[{position}]: {error}")
                            continue
                        _check_operators(
                            errors, f"rules.mds[{position}]",
                            dependency.lhs, registry,
                        )
            raw_rcks = rules.get("rcks")
            if raw_rcks is not None:
                parsed_keys: List[Tuple[Tuple[str, str, str], ...]] = []
                if not isinstance(raw_rcks, (list, tuple)):
                    errors.append(
                        "rules.rcks: expected null or a list of keys, "
                        "each a list of [left, right, operator] triples"
                    )
                elif not raw_rcks:
                    errors.append(
                        "rules.rcks: an empty list pins no key; pin at "
                        "least one key, or omit 'rcks' to deduce them"
                    )
                else:
                    for position, triples in enumerate(raw_rcks):
                        where = f"rules.rcks[{position}]"
                        try:
                            normalized = tuple(
                                (str(l), str(r), str(op)) for l, r, op in triples
                            )
                        except (TypeError, ValueError):
                            errors.append(
                                f"{where}: expected [left, right, operator] "
                                f"triples, got {triples!r}"
                            )
                            continue
                        parsed_keys.append(normalized)
                        if target is not None:
                            try:
                                key = RelativeKey.from_triples(target, normalized)
                            except ValueError as error:
                                errors.append(f"{where}: {error}")
                                continue
                            _check_operators(errors, where, key.atoms, registry)
                    rck_triples = tuple(parsed_keys)
            top_k = _option_value(errors, rules, OPTIONS["rules.top_k"])
            if not md_lines and raw_rcks is None:
                errors.append(
                    "rules: need at least one MD in 'mds' or one key in 'rcks'"
                )

        # -- the option sections: one walk over the declared fields ------
        options: Dict[str, object] = {}
        for section, declared in OPTION_SECTIONS.items():
            body = document.get(section, {})
            if not isinstance(body, dict):
                errors.append(f"{section}: expected an object, got {body!r}")
                continue
            unknown_keys = set(body) - set(declared)
            if unknown_keys:
                errors.append(
                    f"{section}: unknown key(s) {sorted(unknown_keys)}"
                )
            for option in declared.values():
                options[option.name] = _option_value(errors, body, option)

        # -- the two rules that span fields ------------------------------
        if pair is not None:
            for l, r in options.get("key_pairs") or ():
                if l not in pair.left or r not in pair.right:
                    errors.append(
                        f"blocking.key_pairs: ({l!r}, {r!r}) is not "
                        f"an attribute pair of "
                        f"({pair.left.name}, {pair.right.name})"
                    )
            # The default names the paper's name attributes, and every
            # canonical document carries it whatever its schema: only a
            # list the author chose is held to the schema.
            encode = options.get("encode")
            if encode is not None and encode != DEFAULT_ENCODED_ATTRIBUTES:
                for name in encode:
                    if name not in pair.left and name not in pair.right:
                        errors.append(
                            f"blocking.encode: {name!r} is an attribute of "
                            f"neither {pair.left.name} nor {pair.right.name}"
                        )
        if (
            options.get("persistence_backend") == "sqlite"
            and options.get("persistence_path") is None
        ):
            errors.append(
                "persistence.path: the sqlite backend needs a store "
                "file path (e.g. \"store.db\")"
            )

        metrics_section = document.get("metrics", {})
        metric_items: Tuple[Tuple[str, str], ...] = ()
        if isinstance(metrics_section, dict):
            metric_items = tuple(
                (str(alias), str(metrics_section[alias]))
                for alias in sorted(metrics_section)
            )

        if errors:
            return None, errors
        spec = cls(
            version=SPEC_VERSION,
            left_name=left.name,
            left_attributes=tuple(left.attribute_names),
            right_name=right.name,
            right_attributes=tuple(right.attribute_names),
            target_left=target_left,
            target_right=target_right,
            mds=md_lines,
            rcks=rck_triples,
            top_k=top_k,
            metrics=metric_items,
            **options,
        )
        return spec, []

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """The canonical document; a fixed point of :meth:`from_dict`."""
        document: Dict[str, object] = {
            "version": self.version,
            "schema": {
                "left": {
                    "name": self.left_name,
                    "attributes": list(self.left_attributes),
                },
                "right": {
                    "name": self.right_name,
                    "attributes": list(self.right_attributes),
                },
            },
            "target": {
                "left": list(self.target_left),
                "right": list(self.target_right),
            },
            "rules": {
                "mds": list(self.mds),
                "rcks": _plain(self.rcks),
                "top_k": self.top_k,
            },
            "metrics": {alias: existing for alias, existing in self.metrics},
        }
        for section, declared in OPTION_SECTIONS.items():
            document[section] = {
                key: _plain(getattr(self, option.name))
                for key, option in declared.items()
            }
        return document

    def to_json(self, indent: int = 1) -> str:
        """The canonical document as JSON text."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path) -> None:
        """Write the canonical JSON document to ``path``."""
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    def fingerprint(self) -> str:
        """A short stable hash of the canonical document.

        Two specs with the same semantics (same canonical document) have
        the same fingerprint regardless of key order or formatting; any
        material change — a rule, a threshold, a backend parameter —
        changes it.  Engine stores embed it to reject resuming under an
        incompatible spec.

        The whole ``observability`` section is excluded: tracing
        observes a run, it never alters one, so turning it on must not
        invalidate stores or change what a report claims it ran.
        ``persistence`` is excluded too: *where* the store lives
        (memory, a SQLite file, which path) never changes what is
        matched — the backend differential suite
        (``tests/engine/test_sqlite_differential.py``) pins that — so a
        store built under a memory spec resumes under a sqlite one and
        vice versa.  The ``serve`` section is excluded for the same
        reason: host/port and micro-batching knobs shape *how* a service
        ingests (batch boundaries provably never change results — the
        batch-boundary invariance suite pins that), never *what* it
        resolves — so retuning a deployment keeps its tenants, and the
        service can key tenants by fingerprint without a port change
        splitting a tenant in two.
        """
        cached = self._fingerprint
        if cached is None:
            document = self.to_dict()
            for section in DEPLOYMENT_SECTIONS:
                del document[section]
            # Keys 11.0 retired, at the one value each can still take: no v1 fingerprint moves.
            document["execution"].update({"cache": True, "cache_limit": 1048576, "max_cascade": 256})
            payload = json.dumps(
                document, sort_keys=True, separators=(",", ":")
            )
            cached = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    # ------------------------------------------------------------------
    # Realizing the spec as core objects
    # ------------------------------------------------------------------

    def schema_pair(self) -> SchemaPair:
        """The spec's schema pair as core objects."""
        return SchemaPair(
            RelationSchema(self.left_name, self.left_attributes),
            RelationSchema(self.right_name, self.right_attributes),
        )

    def target_lists(self, pair: Optional[SchemaPair] = None) -> ComparableLists:
        """The spec's target as a validated :class:`ComparableLists`."""
        return ComparableLists(
            pair if pair is not None else self.schema_pair(),
            self.target_left,
            self.target_right,
        )

    def build_registry(self) -> MetricRegistry:
        """The metric registry the spec's bindings describe.

        The shared default registry when there are no bindings; a fresh
        registry extended with the aliases otherwise.
        """
        if not self.metrics:
            return DEFAULT_REGISTRY
        registry = default_registry()
        for alias, existing in self.metrics:
            registry.alias(alias, existing)
        return registry

    def parsed_mds(
        self, pair: Optional[SchemaPair] = None
    ) -> List[MatchingDependency]:
        """The MD text lines parsed over the spec's schema pair."""
        if pair is None:
            pair = self.schema_pair()
        return [parse_md(line, pair) for line in self.mds]

    def explicit_rcks(
        self, target: Optional[ComparableLists] = None
    ) -> Optional[List[RelativeKey]]:
        """The explicitly listed RCKs, or ``None`` when they are deduced."""
        if self.rcks is None:
            return None
        if target is None:
            target = self.target_lists()
        return [
            RelativeKey.from_triples(target, triples) for triples in self.rcks
        ]

    def resolver(self) -> ValueResolver:
        """The value-choice policy as a callable."""
        return VALUE_POLICIES[self.policy]

    @property
    def tracing_on(self) -> bool:
        """Whether this spec asks for a live (non-null) tracer.

        True when observability is enabled explicitly or implied by a
        trace output path.
        """
        return self.obs_enabled or self.trace_path is not None


#: Every declared option by document path — the table ``_parse``,
#: ``to_dict`` and the CLI's tuning flags are views of.
OPTIONS: Dict[str, Field] = {
    option.metadata["path"]: option
    for option in fields(ResolutionSpec)
    if "path" in option.metadata
}


def _option_sections() -> Dict[str, Dict[str, Field]]:
    grouped: Dict[str, Dict[str, Field]] = {}
    for path, option in OPTIONS.items():
        section, _, key = path.partition(".")
        if section not in _CORE_SECTIONS:
            grouped.setdefault(section, {})[key] = option
    return grouped


#: ``section -> key -> field`` for the sections made of options only
#: (``rules.top_k`` is read inside the hand-parsed ``rules`` section).
OPTION_SECTIONS = _option_sections()


class SpecBuilder:
    """Fluent construction of a :class:`ResolutionSpec` document.

    Every method returns the builder; :meth:`build` validates the
    accumulated document exactly like :meth:`ResolutionSpec.from_dict`.

    >>> builder = (SpecBuilder()
    ...     .schema("R", ["A", "B"], "S", ["A", "B"])
    ...     .target(["A"], ["A"])
    ...     .mds(["R[B] = S[B] -> R[A] <=> S[A]"]))
    >>> builder.build().mode
    'enforce'
    """

    def __init__(self) -> None:
        self._document: Dict[str, object] = {"version": SPEC_VERSION}

    def schema(
        self,
        left_name: str,
        left_attributes: Sequence[str],
        right_name: str,
        right_attributes: Sequence[str],
    ) -> "SpecBuilder":
        """Declare the schema pair by names and attribute lists."""
        self._document["schema"] = {
            "left": {"name": left_name, "attributes": list(left_attributes)},
            "right": {"name": right_name, "attributes": list(right_attributes)},
        }
        return self

    def pair(self, pair: SchemaPair) -> "SpecBuilder":
        """Declare the schema pair from an existing :class:`SchemaPair`."""
        return self.schema(
            pair.left.name,
            pair.left.attribute_names,
            pair.right.name,
            pair.right.attribute_names,
        )

    def target(self, left, right: Optional[Sequence[str]] = None) -> "SpecBuilder":
        """Declare the target lists (or pass a :class:`ComparableLists`)."""
        if isinstance(left, ComparableLists):
            left, right = left.left_list, left.right_list
        self._document["target"] = {"left": list(left), "right": list(right)}
        return self

    def mds(self, mds) -> "SpecBuilder":
        """Declare the MDs: text, text lines, or parsed MD objects."""
        if isinstance(mds, str):
            lines = [
                line.strip()
                for line in mds.splitlines()
                if line.strip() and not line.strip().startswith("#")
            ]
        else:
            lines = [
                format_md(item)
                if isinstance(item, MatchingDependency)
                else str(item)
                for item in mds
            ]
        rules = self._document.setdefault("rules", {})
        rules["mds"] = lines
        return self

    def rcks(self, rcks) -> "SpecBuilder":
        """Pin explicit RCKs (keys or triple lists) instead of deducing."""
        keys = []
        for key in rcks:
            if isinstance(key, RelativeKey):
                keys.append(
                    [
                        [atom.left, atom.right, atom.operator.name]
                        for atom in key.atoms
                    ]
                )
            else:
                keys.append([list(triple) for triple in key])
        rules = self._document.setdefault("rules", {})
        rules["rcks"] = keys
        return self

    def metric(self, alias: str, existing: str) -> "SpecBuilder":
        """Bind an operator alias to a registered metric name."""
        metrics = self._document.setdefault("metrics", {})
        metrics[alias] = existing
        return self

    def blocking(self, backend: str, **options) -> "SpecBuilder":
        """Choose the blocking backend and its parameters."""
        self._document["blocking"] = {"backend": backend, **options}
        return self

    def resolution(self, policy: str) -> "SpecBuilder":
        """Choose the value-choice policy by name."""
        self._document["resolution"] = {"policy": policy}
        return self

    def observability(self, enabled: bool = True, **options) -> "SpecBuilder":
        """Turn on span tracing; ``trace=`` names a trace output file
        (a Chrome ``trace_event`` document).

        The section never enters the fingerprint — observing a run does
        not change it.
        """
        self._document["observability"] = {"enabled": enabled, **options}
        return self

    def persistence(
        self, backend: str = "sqlite", path: Optional[str] = None
    ) -> "SpecBuilder":
        """Choose the engine store backend (and, for durable backends,
        the store file path).

        Like :meth:`observability`, the section never enters the
        fingerprint — where the store lives does not change what is
        matched.
        """
        self._document["persistence"] = {"backend": backend, "path": path}
        return self

    def serve(self, **options) -> "SpecBuilder":
        """Configure the resolution service (``repro serve``): ``host``,
        ``port``, and the ingest path's ``max_batch`` (micro-batch
        bound: one commit, and one unit of rollback, per batch) and
        ``queue_limit`` (per-tenant queue bound before backpressure,
        HTTP 429).  Like :meth:`observability`, the section never enters
        the fingerprint — deployment shape does not change what is
        matched.
        """
        self._document["serve"] = options
        return self

    def execution(self, **options) -> "SpecBuilder":
        """Set execution options (``mode``, ``max_rounds``, ``top_k``)."""
        if "top_k" in options:
            rules = self._document.setdefault("rules", {})
            rules["top_k"] = options.pop("top_k")
        execution = self._document.setdefault("execution", {})
        execution.update(options)
        return self

    def document(self) -> Dict[str, object]:
        """A deep copy of the accumulated raw document."""
        return copy.deepcopy(self._document)

    def build(self) -> ResolutionSpec:
        """Validate the document into a :class:`ResolutionSpec`."""
        return ResolutionSpec.from_dict(self.document())

    def workspace(self):
        """Build the spec and wrap it in a :class:`~repro.api.Workspace`."""
        from .workspace import Workspace

        return Workspace(self.build())
