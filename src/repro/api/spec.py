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
  engine snapshots embed it so restoring a store under a different spec
  is rejected instead of silently mis-matching.

A :class:`~repro.api.workspace.Workspace` built from the spec compiles
it through the :mod:`repro.plan` kernel exactly once and executes it in
any mode (batch direct, batch enforcement, streaming).  The
:class:`SpecBuilder` offers the same document fluently from Python.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

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
from repro.obs.export import TRACE_FORMATS
from repro.plan.blocking import DEFAULT_ENCODED_ATTRIBUTES
from repro.plan.compile import DEFAULT_CACHE_LIMIT

#: Current specification format version.
SPEC_VERSION = 1

#: Backends a spec may name in its ``blocking`` section.
BLOCKING_BACKENDS = ("sorted-neighborhood", "hash")

#: Execution modes a spec may name in its ``execution`` section.
EXECUTION_MODES = ("enforce", "direct")

#: Store backends a spec may name in its ``persistence`` section.
PERSISTENCE_BACKENDS = ("memory", "sqlite")

#: Sections a v1 document may contain.
_SECTIONS = (
    "version", "schema", "target", "rules", "metrics",
    "blocking", "resolution", "execution", "observability",
    "persistence", "serve",
)


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
# Validation helpers (each appends to a shared error list)
# ----------------------------------------------------------------------


def _check_int(
    errors: List[str], where: str, value: object, minimum: int
) -> bool:
    if not isinstance(value, int) or isinstance(value, bool):
        errors.append(f"{where}: expected an integer, got {value!r}")
        return False
    if value < minimum:
        errors.append(f"{where}: must be >= {minimum}, got {value}")
        return False
    return True


def _check_str_list(errors: List[str], where: str, value: object) -> bool:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        errors.append(f"{where}: expected a list of strings, got {value!r}")
        return False
    return True


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
    top_k: int = 5
    metrics: Tuple[Tuple[str, str], ...] = ()
    blocking_backend: str = "sorted-neighborhood"
    window: int = 10
    key_length: int = 1
    encode: Tuple[str, ...] = DEFAULT_ENCODED_ATTRIBUTES
    key_pairs: Optional[Tuple[Tuple[str, str], ...]] = None
    policy: str = "prefer-informative"
    mode: str = "enforce"
    max_rounds: int = 100
    max_cascade: int = 256
    cache: bool = True
    cache_limit: int = DEFAULT_CACHE_LIMIT
    obs_enabled: bool = False
    trace_path: Optional[str] = None
    trace_format: str = "chrome"
    persistence_backend: str = "memory"
    persistence_path: Optional[str] = None
    serve_host: str = "127.0.0.1"
    serve_port: int = 8080
    serve_max_batch: int = 16
    serve_max_delay_ms: int = 10
    serve_queue_limit: int = 1024
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

        unknown = set(document) - set(_SECTIONS)
        if unknown:
            errors.append(
                f"unknown section(s) {sorted(unknown)}; "
                f"a v{SPEC_VERSION} spec may contain {list(_SECTIONS)}"
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
        top_k = 5
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
            top_k = rules.get("top_k", 5)
            _check_int(errors, "rules.top_k", top_k, 1)
            if not md_lines and not raw_rcks:
                errors.append(
                    "rules: need at least one MD in 'mds' or one key in 'rcks'"
                )

        # -- blocking ---------------------------------------------------
        blocking = document.get("blocking", {})
        backend = "sorted-neighborhood"
        window, key_length = 10, 1
        encode: Tuple[str, ...] = DEFAULT_ENCODED_ATTRIBUTES
        key_pairs = None
        if not isinstance(blocking, dict):
            errors.append(f"blocking: expected an object, got {blocking!r}")
        else:
            unknown_blocking = set(blocking) - {
                "backend", "window", "key_length", "encode", "key_pairs"
            }
            if unknown_blocking:
                errors.append(
                    f"blocking: unknown key(s) {sorted(unknown_blocking)}"
                )
            backend = blocking.get("backend", "sorted-neighborhood")
            if backend not in BLOCKING_BACKENDS:
                errors.append(
                    f"blocking.backend: unknown backend {backend!r}; "
                    f"choose one of {list(BLOCKING_BACKENDS)}"
                )
            window = blocking.get("window", 10)
            # A window of 0 or 1 is legal at the backend level but can
            # never pair two records — a spec declaring one would
            # silently resolve nothing, so validation refuses it.
            if not isinstance(window, int) or isinstance(window, bool):
                _check_int(errors, "blocking.window", window, 2)
            elif window < 2:
                errors.append(
                    f"blocking.window: must be >= 2, got {window} — a "
                    "sorted-neighborhood window needs at least 2 slots to "
                    "ever pair two records"
                )
            key_length = blocking.get("key_length", 1)
            _check_int(errors, "blocking.key_length", key_length, 1)
            raw_encode = blocking.get("encode", list(DEFAULT_ENCODED_ATTRIBUTES))
            if _check_str_list(errors, "blocking.encode", raw_encode):
                encode = tuple(raw_encode)
            raw_pairs = blocking.get("key_pairs")
            if raw_pairs is not None:
                try:
                    key_pairs = tuple((str(l), str(r)) for l, r in raw_pairs)
                except (TypeError, ValueError):
                    errors.append(
                        "blocking.key_pairs: expected [left, right] "
                        f"attribute pairs, got {raw_pairs!r}"
                    )
                    key_pairs = None
                if key_pairs is not None and pair is not None:
                    for l, r in key_pairs:
                        if l not in pair.left or r not in pair.right:
                            errors.append(
                                f"blocking.key_pairs: ({l!r}, {r!r}) is not "
                                f"an attribute pair of "
                                f"({pair.left.name}, {pair.right.name})"
                            )

        # -- resolution -------------------------------------------------
        resolution = document.get("resolution", {})
        policy = "prefer-informative"
        if not isinstance(resolution, dict):
            errors.append(f"resolution: expected an object, got {resolution!r}")
        else:
            unknown_res = set(resolution) - {"policy"}
            if unknown_res:
                errors.append(f"resolution: unknown key(s) {sorted(unknown_res)}")
            policy = resolution.get("policy", "prefer-informative")
            if policy not in VALUE_POLICIES:
                errors.append(
                    f"resolution.policy: unknown policy {policy!r}; "
                    f"choose one of {sorted(VALUE_POLICIES)}"
                )

        # -- execution --------------------------------------------------
        execution = document.get("execution", {})
        mode = "enforce"
        max_rounds, max_cascade = 100, 256
        cache, cache_limit = True, DEFAULT_CACHE_LIMIT
        if not isinstance(execution, dict):
            errors.append(f"execution: expected an object, got {execution!r}")
        else:
            unknown_exec = set(execution) - {
                "mode", "max_rounds", "max_cascade", "cache", "cache_limit",
            }
            if unknown_exec:
                errors.append(f"execution: unknown key(s) {sorted(unknown_exec)}")
            mode = execution.get("mode", "enforce")
            if mode not in EXECUTION_MODES:
                errors.append(
                    f"execution.mode: unknown mode {mode!r}; "
                    f"choose one of {list(EXECUTION_MODES)}"
                )
            max_rounds = execution.get("max_rounds", 100)
            _check_int(errors, "execution.max_rounds", max_rounds, 1)
            max_cascade = execution.get("max_cascade", 256)
            _check_int(errors, "execution.max_cascade", max_cascade, 1)
            cache = execution.get("cache", True)
            if not isinstance(cache, bool):
                errors.append(
                    f"execution.cache: expected true or false, got {cache!r}"
                )
            cache_limit = execution.get("cache_limit", DEFAULT_CACHE_LIMIT)
            _check_int(errors, "execution.cache_limit", cache_limit, 1)

        # -- observability ----------------------------------------------
        observability = document.get("observability", {})
        obs_enabled = False
        trace_path: Optional[str] = None
        trace_format = "chrome"
        if not isinstance(observability, dict):
            errors.append(
                f"observability: expected an object, got {observability!r}"
            )
        else:
            unknown_obs = set(observability) - {
                "enabled", "trace", "trace_format"
            }
            if unknown_obs:
                errors.append(
                    f"observability: unknown key(s) {sorted(unknown_obs)}"
                )
            obs_enabled = observability.get("enabled", False)
            if not isinstance(obs_enabled, bool):
                errors.append(
                    f"observability.enabled: expected true or false, "
                    f"got {obs_enabled!r}"
                )
                obs_enabled = False
            trace_path = observability.get("trace")
            if trace_path is not None and not isinstance(trace_path, str):
                errors.append(
                    f"observability.trace: expected null or a file path "
                    f"string, got {trace_path!r}"
                )
                trace_path = None
            trace_format = observability.get("trace_format", "chrome")
            if trace_format not in TRACE_FORMATS:
                errors.append(
                    f"observability.trace_format: unknown format "
                    f"{trace_format!r}; choose one of {list(TRACE_FORMATS)}"
                )
                trace_format = "chrome"

        # -- persistence ------------------------------------------------
        persistence = document.get("persistence", {})
        persistence_backend = "memory"
        persistence_path: Optional[str] = None
        if not isinstance(persistence, dict):
            errors.append(
                f"persistence: expected an object, got {persistence!r}"
            )
        else:
            unknown_persist = set(persistence) - {"backend", "path"}
            if unknown_persist:
                errors.append(
                    f"persistence: unknown key(s) {sorted(unknown_persist)}"
                )
            persistence_backend = persistence.get("backend", "memory")
            if persistence_backend not in PERSISTENCE_BACKENDS:
                errors.append(
                    f"persistence.backend: unknown backend "
                    f"{persistence_backend!r}; choose one of "
                    f"{list(PERSISTENCE_BACKENDS)}"
                )
                persistence_backend = "memory"
            persistence_path = persistence.get("path")
            if persistence_path is not None and not isinstance(
                persistence_path, str
            ):
                errors.append(
                    f"persistence.path: expected null or a file path "
                    f"string, got {persistence_path!r}"
                )
                persistence_path = None
            if persistence_backend == "sqlite" and persistence_path is None:
                errors.append(
                    "persistence.path: the sqlite backend needs a store "
                    "file path (e.g. \"store.db\")"
                )

        # -- serve ------------------------------------------------------
        serve = document.get("serve", {})
        serve_host = "127.0.0.1"
        serve_port = 8080
        serve_max_batch, serve_max_delay_ms = 16, 10
        serve_queue_limit = 1024
        if not isinstance(serve, dict):
            errors.append(f"serve: expected an object, got {serve!r}")
        else:
            unknown_serve = set(serve) - {
                "host", "port", "max_batch", "max_delay_ms", "queue_limit",
            }
            if unknown_serve:
                errors.append(f"serve: unknown key(s) {sorted(unknown_serve)}")
            serve_host = serve.get("host", "127.0.0.1")
            if not isinstance(serve_host, str) or not serve_host:
                errors.append(
                    f"serve.host: expected a non-empty string, "
                    f"got {serve_host!r}"
                )
                serve_host = "127.0.0.1"
            # Port 0 is legal: bind an ephemeral port (tests do this).
            serve_port = serve.get("port", 8080)
            if _check_int(errors, "serve.port", serve_port, 0):
                if serve_port > 65535:
                    errors.append(
                        f"serve.port: must be <= 65535, got {serve_port}"
                    )
            serve_max_batch = serve.get("max_batch", 16)
            _check_int(errors, "serve.max_batch", serve_max_batch, 1)
            serve_max_delay_ms = serve.get("max_delay_ms", 10)
            _check_int(errors, "serve.max_delay_ms", serve_max_delay_ms, 0)
            serve_queue_limit = serve.get("queue_limit", 1024)
            _check_int(errors, "serve.queue_limit", serve_queue_limit, 1)

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
            blocking_backend=backend,
            window=window,
            key_length=key_length,
            encode=encode,
            key_pairs=key_pairs,
            policy=policy,
            mode=mode,
            max_rounds=max_rounds,
            max_cascade=max_cascade,
            cache=cache,
            cache_limit=cache_limit,
            obs_enabled=obs_enabled,
            trace_path=trace_path,
            trace_format=trace_format,
            persistence_backend=persistence_backend,
            persistence_path=persistence_path,
            serve_host=serve_host,
            serve_port=serve_port,
            serve_max_batch=serve_max_batch,
            serve_max_delay_ms=serve_max_delay_ms,
            serve_queue_limit=serve_queue_limit,
        )
        return spec, []

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """The canonical document; a fixed point of :meth:`from_dict`."""
        return {
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
                "rcks": (
                    None
                    if self.rcks is None
                    else [
                        [list(triple) for triple in key] for key in self.rcks
                    ]
                ),
                "top_k": self.top_k,
            },
            "metrics": {alias: existing for alias, existing in self.metrics},
            "blocking": {
                "backend": self.blocking_backend,
                "window": self.window,
                "key_length": self.key_length,
                "encode": list(self.encode),
                "key_pairs": (
                    None
                    if self.key_pairs is None
                    else [list(pair) for pair in self.key_pairs]
                ),
            },
            "resolution": {"policy": self.policy},
            "execution": {
                "mode": self.mode,
                "max_rounds": self.max_rounds,
                "max_cascade": self.max_cascade,
                "cache": self.cache,
                "cache_limit": self.cache_limit,
            },
            "observability": {
                "enabled": self.obs_enabled,
                "trace": self.trace_path,
                "trace_format": self.trace_format,
            },
            "persistence": {
                "backend": self.persistence_backend,
                "path": self.persistence_path,
            },
            "serve": {
                "host": self.serve_host,
                "port": self.serve_port,
                "max_batch": self.serve_max_batch,
                "max_delay_ms": self.serve_max_delay_ms,
                "queue_limit": self.serve_queue_limit,
            },
        }

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
        changes it.  Engine snapshots embed it to reject restores under
        an incompatible spec.

        The whole ``observability`` section is excluded: tracing
        observes a run, it never alters one, so turning it on must not
        invalidate snapshots or change what a report claims it ran.
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
            document.pop("observability")
            document.pop("persistence")
            document.pop("serve")
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

    def observability(
        self,
        enabled: bool = True,
        trace: Optional[str] = None,
        trace_format: str = "chrome",
    ) -> "SpecBuilder":
        """Turn on span tracing, optionally naming a trace output file.

        The section never enters the fingerprint — observing a run does
        not change it.
        """
        self._document["observability"] = {
            "enabled": enabled,
            "trace": trace,
            "trace_format": trace_format,
        }
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

    def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        max_batch: int = 16,
        max_delay_ms: int = 10,
        queue_limit: int = 1024,
    ) -> "SpecBuilder":
        """Configure the resolution service (``repro serve``).

        ``max_batch``/``max_delay_ms`` bound the ingest micro-batches
        (one pooled chase per batch), ``queue_limit`` bounds the
        per-tenant queue before backpressure (HTTP 429).  Like
        :meth:`observability`, the section never enters the fingerprint
        — deployment shape does not change what is matched.
        """
        self._document["serve"] = {
            "host": host,
            "port": port,
            "max_batch": max_batch,
            "max_delay_ms": max_delay_ms,
            "queue_limit": queue_limit,
        }
        return self

    def execution(self, **options) -> "SpecBuilder":
        """Set execution options (``mode``, ``top_k``, caches, bounds)."""
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
