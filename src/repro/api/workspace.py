"""The :class:`Workspace` façade: one spec, every execution strategy.

A workspace is constructed from a :class:`~repro.api.spec.ResolutionSpec`
(or its document / file) and is the single front door to the system:

* :meth:`Workspace.deduce` — the RCKs the spec's rules yield;
* :meth:`Workspace.match` — batch matching: the chase over the blocked
  candidates, read off in the spec's execution mode;
* :meth:`Workspace.stream` — a spec-configured
  :class:`~repro.engine.matcher.IncrementalMatcher` over the same plan;
* :meth:`Workspace.explain` — the spec header plus the compiled plan.

Everything compiles through the :mod:`repro.plan` kernel **exactly
once** per workspace (observable via ``plan.stats.compiles``) into one
rule set: Σ under an ``enforce`` spec, the keys as MDs (Σ_Γ) under a
``direct`` one.  Batch, stream and serve all chase that rule set;
``execution.mode`` decides only which rules compile and how a batch
match is read off (``enforce``: target cells identified; ``direct``:
some key fired in round 1, i.e. its comparisons all agree on ``D``).
The one batch method returns one result type, :class:`MatchReport`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

from repro.core.findrcks import find_rcks
from repro.core.rck import RelativeKey
from repro.core.semantics import InstancePair
from repro.matching.clustering import Cluster, cluster_matches
from repro.matching.evaluate import Pair
from repro.plan.blocking import BlockingBackend, CandidateSet, build_blocking
from repro.obs import (
    MetricsRegistry,
    NULL_TRACER,
    Tracer,
    run_manifest,
    write_trace,
)
from repro.plan.compile import EnforcementPlan, compile_plan
from repro.relations.relation import Relation

from .spec import ResolutionSpec, SpecError


@dataclass(frozen=True)
class MatchReport:
    """The unified result of any spec-driven batch matching run.

    Attributes
    ----------
    matches, candidates:
        The declared matches, ascending, and the candidate pairs they were
        drawn from: the :class:`~repro.plan.blocking.CandidateSet` the
        chase ran over (pairs handed in another form, sorted into one).
    clusters:
        The matches consolidated into entity clusters (transitive closure).
    provenance:
        For each matched pair, the names of the compiled rules/keys that
        justified it (``rck0``/``md1`` — the names ``plan explain`` prints).
    stats:
        A snapshot of the plan's cumulative :class:`~repro.plan.compile.PlanStats`
        counters taken when the report was built (``compiles`` stays 1 for
        a workspace's whole lifetime), merged with the workspace's
        :class:`~repro.obs.MetricsRegistry` — its counters flat alongside
        the plan counters, plus ``"gauges"`` and ``"histograms"``
        (p50/p95/p99 summaries) sub-mappings.  Every pre-existing
        ``PlanStats`` field keeps its key and meaning.
    fingerprint:
        The spec fingerprint the run executed under.
    mode:
        ``"direct"`` or ``"enforce"``.
    """

    matches: Tuple[Pair, ...]
    candidates: CandidateSet
    clusters: Tuple[Cluster, ...]
    provenance: Mapping[Pair, Tuple[str, ...]]
    stats: Mapping[str, object]
    fingerprint: str
    mode: str

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable rendering of the report."""
        return {
            "mode": self.mode,
            "spec_fingerprint": self.fingerprint,
            "matches": [list(pair) for pair in self.matches],
            "candidate_count": len(self.candidates),
            "clusters": [
                {
                    "left_tids": sorted(cluster.left_tids),
                    "right_tids": sorted(cluster.right_tids),
                }
                for cluster in self.clusters
            ],
            "provenance": [
                {"pair": list(pair), "rules": list(self.provenance[pair])}
                for pair in self.matches
                if pair in self.provenance
            ],
            "stats": dict(self.stats),
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), sort_keys=True)``, byte for byte,
        without building the tree: what ``repro match --json`` prints."""
        return "".join(self._json_pieces())

    def write_json(self, stream) -> None:
        """Write :meth:`to_json`'s text to ``stream`` a piece at a time —
        how ``repro match --json`` prints it, never holding all of it."""
        for piece in self._json_pieces():
            stream.write(piece)

    def _json_pieces(self) -> Iterator[str]:
        """The JSON text in pieces of up to 1 024 list items.  The pair
        lists are formatted straight from the tid pairs, each distinct
        provenance rule tuple is encoded once, and only the clusters and
        the small ``stats`` mapping go through the encoder."""
        provenance = self.provenance
        encoded_rules: Dict[Tuple[str, ...], str] = {}

        def clusters(chunk) -> str:
            return json.dumps([
                {
                    "left_tids": sorted(cluster.left_tids),
                    "right_tids": sorted(cluster.right_tids),
                }
                for cluster in chunk
            ])[1:-1]

        def pairs(chunk) -> str:
            return ", ".join(map("[%d, %d]".__mod__, chunk))

        def entries(chunk) -> str:
            texts = []
            for pair in chunk:
                rules = provenance[pair]
                text = encoded_rules.get(rules)
                if text is None:
                    text = encoded_rules[rules] = json.dumps(list(rules))
                texts.append('{"pair": [%d, %d], "rules": %s}' % (*pair, text))
            return ", ".join(texts)

        def listed(items, render) -> Iterator[str]:
            for start in range(0, len(items), 1024):
                yield ", " * (start > 0) + render(items[start:start + 1024])

        yield '{"candidate_count": %d, "clusters": [' % len(self.candidates)
        yield from listed(self.clusters, clusters)
        yield '], "matches": ['
        yield from listed(self.matches, pairs)
        yield '], "mode": %s, "provenance": [' % json.dumps(self.mode)
        yield from listed([pair for pair in self.matches if pair in provenance], entries)
        yield '], "spec_fingerprint": %s, "stats": %s}' % (
            json.dumps(self.fingerprint), json.dumps(dict(self.stats), sort_keys=True)
        )


class Workspace:
    """A compiled, executable view of one :class:`ResolutionSpec`.

    >>> from repro.api import Workspace
    >>> workspace = (Workspace.builder()
    ...     .schema("R", ["A", "B"], "S", ["A", "B"])
    ...     .target(["A"], ["A"])
    ...     .mds(["R[B] = S[B] -> R[A] <=> S[A]"])
    ...     .workspace())
    >>> len(workspace.deduce())
    2
    """

    def __init__(self, spec) -> None:
        if isinstance(spec, dict):
            spec = ResolutionSpec.from_dict(spec)
        if not isinstance(spec, ResolutionSpec):
            raise TypeError(
                "Workspace takes a ResolutionSpec or its document dict; "
                f"got {type(spec).__name__}"
            )
        self.spec = spec
        self._plan: Optional[EnforcementPlan] = None
        # A live tracer only when the spec asks for one; the null tracer
        # keeps every instrumented path allocation- and clock-free.
        self.tracer = Tracer() if spec.tracing_on else NULL_TRACER
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, document) -> "Workspace":
        """A workspace from a raw spec document."""
        return cls(ResolutionSpec.from_dict(document))

    @classmethod
    def from_json(cls, text: str) -> "Workspace":
        """A workspace from spec JSON text."""
        return cls(ResolutionSpec.from_json(text))

    @classmethod
    def from_file(cls, path) -> "Workspace":
        """A workspace from a spec JSON file."""
        return cls(ResolutionSpec.from_file(path))

    @staticmethod
    def builder():
        """A fluent :class:`~repro.api.spec.SpecBuilder`."""
        from .spec import SpecBuilder

        return SpecBuilder()

    # ------------------------------------------------------------------
    # The one compile
    # ------------------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """The spec's fingerprint (what stores embed)."""
        return self.spec.fingerprint()

    @property
    def plan(self) -> EnforcementPlan:
        """The spec compiled through the kernel — exactly once.

        The first access parses the MDs, deduces (or adopts) the RCKs,
        builds the blocking backend, and calls
        :func:`repro.plan.compile.compile_plan` — with Σ, or under a
        ``direct`` spec with no MDs, so that the keys compile as the
        rules; every later access (batch, stream, explain) reuses the same
        plan object, its predicate table, and its similarity cache.
        """
        if self._plan is None:
            spec = self.spec
            with self.tracer.span("compile", fingerprint=self.fingerprint) as span:
                pair = spec.schema_pair()
                target = spec.target_lists(pair)
                registry = spec.build_registry()
                with self.tracer.span("parse-mds", mds=len(spec.mds)):
                    sigma = spec.parsed_mds(pair)
                rcks = spec.explicit_rcks(target)
                if rcks is None:
                    with self.tracer.span("deduce-rcks", top_k=spec.top_k):
                        rcks = find_rcks(sigma, target, m=spec.top_k)
                with self.tracer.span("build-blocking", backend=spec.blocking_backend):
                    blocking = self._blocking_backend(rcks)
                with self.tracer.span("compile-plan"):
                    self._plan = compile_plan(
                        () if spec.mode == "direct" else sigma,
                        target,
                        rcks=rcks,
                        registry=registry,
                        blocking=blocking,
                    )
                span.set("rules", len(self._plan.rules))
                span.set("keys", len(self._plan.keys))
            # Hand the workspace's tracer and registry to the plan: the
            # chase and the engine instrument through ``plan.tracer`` /
            # ``plan.metrics``.
            self._plan.tracer = self.tracer
            self._plan.metrics = self.metrics
        return self._plan

    def _blocking_backend(
        self, rcks: Sequence[RelativeKey]
    ) -> Optional[BlockingBackend]:
        """The spec's blocking section realized as a kernel backend.

        ``encode`` applies uniformly, per attribute pair: a pair either
        of whose names is listed is Soundex-encoded on both sides before
        keying in every backend, so the setting always means something
        when it appears in the fingerprint.
        ``key_length`` configures the hash backend (per-RCK index keys).
        The stores a stream runs over take this backend's passes.
        """
        spec = self.spec
        if not rcks and not spec.key_pairs:
            return None
        return build_blocking(
            rcks, spec.key_length, spec.encode, spec.blocking_backend,
            spec.window, spec.key_pairs,
        )

    # ------------------------------------------------------------------
    # Execution modes
    # ------------------------------------------------------------------

    def deduce(self) -> Tuple[RelativeKey, ...]:
        """The plan's relative candidate keys (deduced or pinned)."""
        return self.plan.rcks

    def candidates(self, left: Relation, right: Relation) -> CandidateSet:
        """Candidate pairs from the spec's blocking backend."""
        return self.plan.candidates(left, right)

    def match(
        self,
        left: Relation,
        right: Relation,
        candidates: Optional[Sequence[Pair]] = None,
        provenance: bool = True,
    ) -> MatchReport:
        """Batch matching: chase the plan's rules over ``candidates`` (the
        blocking backend's, by default; pairs in any other form are sorted
        into a :class:`~repro.plan.blocking.CandidateSet`) and read the
        matches off in the spec's execution mode."""
        plan = self.plan
        started = time.perf_counter()
        with self.tracer.span("enforce") as span:
            instance = InstancePair(plan.pair, left, right)
            if candidates is None:
                with self.tracer.span("blocking") as blocking_span:
                    candidates = plan.candidates(left, right)
                    blocking_span.set("candidates", len(candidates))
            # One candidate set, held by the chase and the report alike.
            candidates = CandidateSet.of(candidates)
            span.set("candidates", len(candidates))
            matches, rule_names = self._chase(instance, candidates, provenance)
            span.set("matches", len(matches))
        self.metrics.observe("match.seconds", time.perf_counter() - started)
        return self._report(matches, candidates, rule_names)

    def _chase(
        self,
        instance: InstancePair,
        candidates: CandidateSet,
        provenance: bool,
    ) -> Tuple[Tuple[Pair, ...], Dict[Pair, Tuple[str, ...]]]:
        """Chase ``instance`` over ``candidates`` and read off the matches
        and, if asked, each match's rules.  The chase's result is dropped
        on return: clustering and the report need only what is read here.
        A match is one tuple, of the tid ints the relations key their
        rows by, shared by ``matches`` and the provenance keys.

        ``enforce``: a match is a pair whose target cells the chase
        identified, justified by the rules whose LHS holds in ``D'``.
        ``direct``: a match is a pair some key fired at in round 1 — its
        comparisons all agree on ``D`` — justified by those keys.
        """
        plan = self.plan
        result = plan.enforce(
            instance,
            resolver=self.spec.resolver(),
            candidate_pairs=candidates,
            max_rounds=self.spec.max_rounds,
        )
        direct = self.spec.mode == "direct"
        if direct:
            held = result.first_round_masks
            matched = [i for i, mask in enumerate(held) if mask]
        else:
            matched = result.matching(plan.target.attribute_pairs())
        matches = tuple(result.merged_cells.pairs_at(matched, instance))
        rule_names: Dict[Pair, Tuple[str, ...]] = {}
        if provenance:
            with self.tracer.span("provenance"):
                if not direct:
                    # The chase already knows which rules' LHS hold in
                    # the chased instance, position by position.
                    held = result.holding_masks
                # Name each distinct set of rules once (a pair listed
                # twice holds at two positions).
                masks: Dict[Pair, int] = {}
                for pair, i in zip(matches, matched):
                    masks[pair] = masks.get(pair, 0) | held[i]
                names: Dict[int, Tuple[str, ...]] = {}
                for pair, mask in masks.items():
                    if mask not in names:
                        names[mask] = tuple(
                            rule.name
                            for index, rule in enumerate(plan.rules)
                            if mask >> index & 1
                        )
                    rule_names[pair] = names[mask]
        return matches, rule_names

    def stream(self, store=None):
        """A spec-configured incremental matcher over this workspace's plan.

        ``store`` resumes from a restored
        :class:`~repro.engine.store.MatchStore` (either backend); a store
        fingerprinted by a *different* spec is rejected with
        :class:`SpecError` (restoring it would silently match under rules
        it was not built with).  New and legacy (unfingerprinted) stores
        are stamped with this spec's fingerprint.

        The stream always runs under the plan's blocking passes: a store
        indexing under other passes (another family, key or window — a
        hand-built store no spec stamped, say, or one from the era when
        sorted-neighborhood specs silently streamed under hash) is
        rejected with :class:`SpecError` rather than silently
        substituting semantics.

        With ``persistence.backend = "sqlite"`` in the spec and no
        explicit ``store``, the durable store at ``persistence.path`` is
        opened — created empty on first use, resumed (an O(1) warm
        restart) thereafter — under the same fingerprint semantics.
        Building the matcher replays the events a durable store committed
        since its last checkpoint, then checkpoints; a tail another
        ``repro`` release wrote raises ``ValueError``.
        """
        from repro.engine.matcher import IncrementalMatcher
        from repro.engine.store import MatchStore

        spec = self.spec
        opened_here = False
        if store is None and spec.persistence_backend == "sqlite":
            store = self.open_store()
            opened_here = True
        if store is None:
            # A fresh memory store, built from this spec: nothing to check.
            store = MatchStore(self.plan.target, self.plan.blocking)
        else:
            errors = []
            stamp = getattr(store, "spec_fingerprint", None)
            if stamp is not None and stamp != self.fingerprint:
                errors.append(
                    f"store was built from spec {stamp}, but this "
                    f"workspace's spec is {self.fingerprint}; "
                    "rebuild the store or load the matching spec"
                )
            blocking = self.plan.blocking
            if blocking is None or store.passes != blocking.to_dict():
                # The store's passes, described without loading its records.
                theirs = BlockingBackend.from_dict(store.passes).describe()
                errors.append(
                    f"store streams under {store.passes['family']!r} blocking "
                    f"({theirs}), but the spec's plan blocks under "
                    f"{spec.blocking_backend!r} "
                    f"({'nothing' if blocking is None else blocking.describe()}); "
                    "its candidate semantics would silently diverge from "
                    "the batch run — rebuild the store under this spec"
                )
            if errors:
                if opened_here:
                    store.close(commit=False)
                raise SpecError(errors)
        # Any failure past this point must not leak a connection this
        # call opened: matcher construction and the fingerprint stamp can
        # both raise after the validation above passed (e.g. a store
        # whose live blocking index rejects the plan's key layout, or a
        # commit against a database that vanished).  The server's tenants
        # lazily open durable stores through this exact path, so a leak
        # here would hold a file handle for the life of the process.
        try:
            matcher = IncrementalMatcher(
                self.plan,
                store,
                resolver=spec.resolver(),
                max_rounds=spec.max_rounds,
            )
            if matcher.store.spec_fingerprint is None:
                matcher.store.spec_fingerprint = self.fingerprint
                matcher.store.commit()
        except Exception:
            if opened_here:
                store.close(commit=False)
            raise
        return matcher

    def open_store(self, path=None):
        """Open (or create) the spec's durable SQLite store.

        ``path`` overrides ``persistence.path``.  The store is wired to
        this workspace's tracer and metrics; its configuration comes from
        the compiled plan, so an existing file created under a different
        configuration is rejected by the store itself.
        """
        from repro.engine.sqlite import SQLiteMatchStore

        spec = self.spec
        target = path if path is not None else spec.persistence_path
        if target is None:
            raise SpecError(
                [
                    "no store path: pass one or set persistence.path "
                    "in the spec"
                ]
            )
        try:
            return SQLiteMatchStore(
                target,
                self.plan.target,
                self.plan.blocking,
                tracer=self.tracer,
                metrics=self.metrics,
            )
        except ValueError as error:
            # A configuration mismatch (including a store created under
            # different blocking semantics) is a spec-level refusal, not
            # a crash: surface it as the CLI's exit-2 error family.
            raise SpecError([str(error)]) from error

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def explain(self) -> str:
        """The spec header plus the compiled plan, human-readable."""
        spec = self.spec
        lines = [
            f"# Workspace: ResolutionSpec v{spec.version}, "
            f"fingerprint {self.fingerprint}",
            f"# execution: mode={spec.mode}, policy={spec.policy}, "
            f"top_k={spec.top_k}",
            self.plan.explain(),
        ]
        return "\n".join(lines)

    def manifest(self, **fields) -> Dict[str, object]:
        """The run manifest for this workspace's trace files."""
        return run_manifest(
            spec_fingerprint=self.fingerprint,
            mode=self.spec.mode,
            policy=self.spec.policy,
            **fields,
        )

    def write_trace(self, path=None, **manifest_fields) -> Dict[str, object]:
        """Export the collected spans and metrics as a Chrome trace file.

        ``path`` defaults to the spec's ``observability.trace``; returns
        the document written.  ``manifest_fields`` land in its manifest —
        all but ``format``, refused as :func:`repro.obs.write_trace`
        refuses it: a trace is a Chrome document, the one format since
        11.0 retired ``observability.trace_format``.
        """
        if "format" in manifest_fields:
            raise TypeError(
                "write_trace() got an unexpected keyword argument 'format': "
                "a trace is a Chrome document, the one format since 11.0"
            )
        target = path if path is not None else self.spec.trace_path
        if target is None:
            raise ValueError(
                "no trace path: pass one or set observability.trace in the spec"
            )
        return write_trace(
            self.tracer,
            target,
            manifest=self.manifest(**manifest_fields),
            metrics=self.metrics,
        )

    def _report(
        self,
        matches: Tuple[Pair, ...],
        candidates: CandidateSet,
        provenance: Dict[Pair, Tuple[str, ...]],
    ) -> MatchReport:
        # One stats mapping for every consumer: the plan's cumulative
        # counters flat at the top (backward compatible), the registry's
        # counters alongside them, and the richer registry sections as
        # sub-mappings.
        rendered = self.metrics.as_dict()
        stats: Dict[str, object] = dict(self.plan.stats.as_dict())
        stats.update(rendered["counters"])
        stats["gauges"] = rendered["gauges"]
        stats["histograms"] = rendered["histograms"]
        return MatchReport(
            matches=matches,
            candidates=candidates,
            clusters=tuple(cluster_matches(matches)),
            provenance=provenance,
            stats=stats,
            fingerprint=self.fingerprint,
            mode=self.spec.mode,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        compiled = "compiled" if self._plan is not None else "uncompiled"
        return (
            f"Workspace(fingerprint={self.fingerprint}, "
            f"mode={self.spec.mode!r}, {compiled})"
        )
