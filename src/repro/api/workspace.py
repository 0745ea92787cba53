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

import time
from array import array
from itertools import compress
from typing import Dict, Optional, Sequence, Tuple

from repro.core.findrcks import find_rcks
from repro.core.rck import RelativeKey
from repro.core.semantics import InstancePair
from repro.matching.clustering import cluster_matches
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

from .report import Matches, MatchReport, Provenance
from .spec import ResolutionSpec, SpecError


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
            matched, masks = self._chase(instance, candidates, provenance)
            span.set("matches", len(matched))
            span.set_peak_rss()
        self.metrics.observe("match.seconds", time.perf_counter() - started)
        return self._report(candidates, matched, masks)

    def _chase(
        self,
        instance: InstancePair,
        candidates: CandidateSet,
        provenance: bool,
    ) -> Tuple[array, Optional[Sequence[int]]]:
        """Chase ``instance`` over ``candidates`` and read off the matched
        positions (ascending, an ``array('i')``) and, if asked, each
        one's rule mask (else ``None``).  The chase's result is dropped on
        return: clustering and the report need only what is read here.

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
            matched = array("i", compress(range(len(held)), held))
        else:
            matched = result.matching(plan.target.attribute_pairs())
        if not provenance:
            return matched, None
        with self.tracer.span("provenance"):
            if not direct:
                # The chase already knows which rules' LHS hold in the
                # chased instance, position by position.
                held = result.holding_masks
            picked = map(held.__getitem__, matched)
            masks = array(held.typecode, picked) if isinstance(held, array) else list(picked)
        return matched, masks

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
        candidates: CandidateSet,
        matched: array,
        masks: Optional[Sequence[int]],
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
        matches = Matches(candidates, matched)
        rules = [rule.name for rule in self.plan.rules]
        if masks is None:  # not asked: provenance over no matches
            provenance = Provenance(Matches(candidates, array("i")), (), rules)
        else:
            provenance = Provenance(matches, masks, rules)
        with self.tracer.span("cluster", matches=len(matches)) as span:
            clusters = cluster_matches(matches)
            span.set("clusters", len(clusters))
            span.set_peak_rss()
        return MatchReport(
            matches=matches,
            candidates=candidates,
            clusters=clusters,
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
