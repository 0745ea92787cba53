"""Compile MDs and RCKs into a shared, executable :class:`EnforcementPlan`.

The paper's rules are declarative; every execution layer used to lower
them independently — the batch matchers resolved operator names per
comparison, the streaming engine re-derived the same blocking keys, and
each re-implemented the pair/rule evaluation loop.  Following the
compile-then-execute designs of the FDB and FAQ query engines, this
module lowers a rule set **once**:

* every LHS conjunct and RCK atom is normalized to a
  ``(left_attr, right_attr, operator)`` triple and **deduplicated** across
  all rules — an atom shared by three MDs and two RCKs becomes one
  :class:`CompiledPredicate`, evaluated at most once per value pair;
* operator names are resolved to executable predicates through the metric
  registry **at compile time**, not per comparison;
* the plan carries a value-keyed **similarity memo cache**: a predicate
  applied twice to the same value pair (across rules, chase rounds,
  matchers, or stream ingests) is computed once and then served from the
  cache;
* every rule's LHS is put in **selection order** — equality atoms first,
  similarity atoms last (:attr:`EnforcementPlan.selections`) — which is
  the order the one chase kernel (:mod:`repro.plan.executor`) narrows its
  candidate pairs in, so a metric only ever sees pairs every cheaper
  atom of the rule let through;
* a pluggable :class:`~repro.plan.blocking.BlockingBackend` supplies
  candidate generation, so batch and streaming share one blocking
  implementation;
* :class:`PlanStats` counts the work actually done (predicate calls,
  memo hits, chase rounds) — diagnostics; what an execution strategy is
  worth is a wall-clock number from ``python3 -m bench``.

Batch matching (:class:`repro.api.Workspace`) and the streaming engine
(:mod:`repro.engine.matcher`) execute through the same plan and the same
rules — Σ, or under a ``direct`` spec the keys as MDs (Σ_Γ); a one-off
chase of Σ is ``compile_plan(sigma=Σ).enforce(instance, …)``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.findrcks import find_rcks
from repro.core.md import MatchingDependency
from repro.core.rck import RelativeKey
from repro.core.schema import ComparableLists, SchemaPair
from repro.core.semantics import prefer_informative
from repro.metrics.base import SimilarityPredicate
from repro.metrics.registry import DEFAULT_REGISTRY, EQ, MetricRegistry
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.relations.relation import Relation, Row

from .blocking import BlockingBackend, CandidateSet, Pair
from .executor import ChaseLayout, ChaseState

#: Bound on the memoized (predicate, value, value) entries; the memo
#: is cleared wholesale when it fills (simple, allocation-free policy).
DEFAULT_CACHE_LIMIT = 1 << 20


@dataclass(frozen=True)
class CompiledPredicate:
    """One deduplicated comparison atom with its resolved predicate.

    ``index`` is the predicate's slot in the plan's table — compiled rules
    and keys reference predicates by slot, which is what makes sharing
    visible (and cache keys small).  ``cacheable`` marks predicates worth
    memoizing: similarity metrics cost orders of magnitude more than a
    cache probe, while plain equality is cheaper than the probe itself.
    """

    index: int
    left: str
    right: str
    operator: str
    predicate: SimilarityPredicate
    cacheable: bool = True

    def render(self) -> str:
        """Human-readable form, e.g. ``credit.FN ~dl(0.8) billing.FN``."""
        op = "=" if self.operator == EQ else f"~{self.operator}"
        return f"{self.left} {op} {self.right}"


@dataclass(frozen=True)
class CompiledRule:
    """An MD lowered to predicate slots and identification pairs."""

    name: str
    lhs: Tuple[int, ...]
    rhs: Tuple[Tuple[str, str], ...]
    source: MatchingDependency


@dataclass(frozen=True)
class CompiledKey:
    """An RCK lowered to predicate slots (what ``plan explain`` lists and
    :class:`~repro.experiments.extensions.negation.GuardedRuleSet`
    evaluates)."""

    name: str
    predicates: Tuple[int, ...]
    source: RelativeKey


@dataclass
class PlanStats:
    """Work counters of one plan, cumulative across executions."""

    compiles: int = 0
    #: Predicate calls executed — an equality atom counts one per pair it
    #: filters or, served by a hash join, one per (left, right) tuple hit
    #: it looks up in the pair list — and similarity memo hits; together,
    #: the predicate probes made.
    metric_evaluations: int = 0
    cache_hits: int = 0
    pairs_compared: int = 0
    rule_applications: int = 0
    chase_rounds: int = 0
    enforcements: int = 0
    #: Chases that hit ``max_rounds`` before reaching a fixpoint (each
    #: such chase also sets ``ChaseState.rounds_exhausted``; the
    #: CLI surfaces this as a warning).
    rounds_exhausted: int = 0
    #: Always 0: the kernel does not group candidate pairs.  The names
    #: exist because the frozen benchmark (``bench/match.py``) reads them
    #: for its ``plan.factorise.*`` rows.
    groups_built: int = 0
    factorisation_ratio: float = 0.0

    def reset(self) -> None:
        """Restore every field to its default (0 for the counters)."""
        for spec in fields(self):
            setattr(self, spec.name, spec.default)

    def as_dict(self) -> Dict[str, object]:
        """The counters as a JSON dict."""
        return dict(vars(self))


def read_attributes(
    rules: Sequence[CompiledRule], predicates: Sequence[CompiledPredicate]
) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """Per side, the attributes whose values a chase over two relations
    can depend on: every LHS attribute, closed under sharing an RHS pair
    with one (an identified pair's cells take one resolved value, so
    what the other cell held reaches the LHS).

    Which cells a chase identifies — hence which pairs it matches — is a
    function of these values alone; a cell outside them is written, never
    read.  The streaming engine uses that to tell a repair that can
    change a verdict from one that cannot.
    """
    left = {predicates[slot].left for rule in rules for slot in rule.lhs}
    right = {predicates[slot].right for rule in rules for slot in rule.lhs}
    rhs_pairs = {pair for rule in rules for pair in rule.rhs}
    grew = True
    while grew:
        grew = False
        for left_attr, right_attr in rhs_pairs:
            if (left_attr in left) != (right_attr in right):
                left.add(left_attr)
                right.add(right_attr)
                grew = True
    return frozenset(left), frozenset(right)


class EnforcementPlan:
    """An executable lowering of a set of MDs and RCKs.

    Built by :func:`compile_plan`; see the module docstring for what
    compilation does.  The plan is the single execution kernel shared by
    every matcher:

    * :meth:`enforce` — the chase (dynamic semantics) over a candidate
      pair set: its cell identifications decide an ``enforce`` match, its
      first round (the rules' LHS on ``D``) a ``direct`` one;
    * :meth:`candidates` — candidate generation through the plan's
      blocking backend.
    """

    def __init__(
        self,
        pair: SchemaPair,
        sigma: Sequence[MatchingDependency],
        rcks: Sequence[RelativeKey],
        predicates: Sequence[CompiledPredicate],
        rules: Sequence[CompiledRule],
        keys: Sequence[CompiledKey],
        registry: MetricRegistry,
        target: Optional[ComparableLists] = None,
        blocking: Optional[BlockingBackend] = None,
        atom_count: int = 0,
    ) -> None:
        self.pair = pair
        self.sigma: Tuple[MatchingDependency, ...] = tuple(sigma)
        self.rcks: Tuple[RelativeKey, ...] = tuple(rcks)
        self.predicates: Tuple[CompiledPredicate, ...] = tuple(predicates)
        self.rules: Tuple[CompiledRule, ...] = tuple(rules)
        self.keys: Tuple[CompiledKey, ...] = tuple(keys)
        self.registry = registry
        self.target = target
        self.blocking = blocking
        #: Total LHS/RCK atoms before deduplication (explain reports the
        #: compression this plan achieved).
        self.atom_count = atom_count
        self.stats = PlanStats()
        #: Observability hooks (repro.obs).  The tracer defaults to the
        #: shared no-op singleton so every instrumentation point in the
        #: kernel stays unconditional; a Workspace built from a spec
        #: with tracing on swaps in a recording Tracer.  The metrics
        #: registry is always live (it is only touched at span-level
        #: granularity, never per predicate).
        self.tracer = NULL_TRACER
        self.metrics = MetricsRegistry()
        self._cache: Dict[Tuple[int, Optional[str], Optional[str]], bool] = {}
        #: Per rule, its LHS in the order the chase kernel narrows a
        #: selection by: the equality atoms as ``(left, right)`` attribute
        #: names, then the similarity predicates (declared order within
        #: each kind).  ``chase_attributes`` names the (left, right)
        #: attributes a chase reads or writes — every LHS atom and RHS
        #: pair; only they get cells in the chase's encoding.
        #: ``layout`` is that encoding's plan-side half — sorted names,
        #: ranks, the rules as rank offsets.  ``read_attributes`` is the
        #: per-side subset of them whose *values* a chase can depend on
        #: (see :func:`read_attributes`); ``rhs_pairs`` the distinct
        #: ``(left, right)`` pairs some rule identifies.  All are derived
        #: here, once, because the streaming engine runs thousands of tiny
        #: chases over one plan.
        selections = []
        left_names: Dict[str, None] = {}
        right_names: Dict[str, None] = {}
        rhs_pairs: Dict[Tuple[str, str], None] = {}
        for rule in self.rules:
            lhs = [self.predicates[slot] for slot in rule.lhs]
            selections.append(
                (
                    tuple((p.left, p.right) for p in lhs if p.operator == EQ),
                    tuple(p for p in lhs if p.operator != EQ),
                )
            )
            for predicate in lhs:
                left_names[predicate.left] = None
                right_names[predicate.right] = None
            for left_attr, right_attr in rule.rhs:
                left_names[left_attr] = None
                right_names[right_attr] = None
                rhs_pairs[left_attr, right_attr] = None
        self.read_attributes = read_attributes(self.rules, self.predicates)
        self.rhs_pairs: Tuple[Tuple[str, str], ...] = tuple(rhs_pairs)
        self.selections: Tuple[
            Tuple[Tuple[Tuple[str, str], ...], Tuple[CompiledPredicate, ...]],
            ...,
        ] = tuple(selections)
        self.chase_attributes: Tuple[Tuple[str, ...], Tuple[str, ...]] = (
            tuple(left_names),
            tuple(right_names),
        )
        by_name = [
            (*selection, rule.rhs) for rule, selection in zip(self.rules, selections)
        ]
        self.layout = ChaseLayout.of(self.chase_attributes, by_name)

    # ------------------------------------------------------------------
    # Predicate evaluation (the memoized hot path)
    # ------------------------------------------------------------------

    def evaluate(
        self, predicate: CompiledPredicate, left_value: object, right_value: object
    ) -> bool:
        """Evaluate one compiled predicate on a value pair, memoized.

        The cache is keyed by values (not tuple ids): chase repairs rewrite
        tuple values mid-run, so value keys stay correct where id keys
        would not — and equal values across different pairs share entries.
        The key is what the predicate reads: a memoized predicate is a
        thresholded string metric
        (:class:`~repro.metrics.base.ThresholdOperator`), which rejects a
        null and otherwise compares the ``str()`` forms — so ``1``,
        ``1.0`` and ``True``, equal and hashed alike but spelled
        differently, each get their own answer, and an unhashable value
        keys the memo like any other.  Equality predicates are evaluated
        directly (the comparison is cheaper than the probe).
        """
        if not predicate.cacheable:
            self.stats.metric_evaluations += 1
            return bool(predicate.predicate(left_value, right_value))
        key = (
            predicate.index,
            left_value if left_value is None else str(left_value),
            right_value if right_value is None else str(right_value),
        )
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        self.stats.metric_evaluations += 1
        result = bool(predicate.predicate(left_value, right_value))
        if len(self._cache) >= DEFAULT_CACHE_LIMIT:
            self._cache.clear()
        self._cache[key] = result
        return result

    def key_matches(self, slots: Sequence[int], t1: Row, t2: Row) -> bool:
        """Do two rows agree on every predicate slot of ``slots`` — a
        key's comparisons (:attr:`CompiledKey.predicates`) or a rule's
        LHS (:attr:`CompiledRule.lhs`)?"""
        for slot in slots:
            predicate = self.predicates[slot]
            if not self.evaluate(predicate, t1[predicate.left], t2[predicate.right]):
                return False
        return True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def enforce(
        self,
        instance,
        resolver=None,
        candidate_pairs: Optional[Sequence[Pair]] = None,
        max_rounds: int = 100,
    ) -> ChaseState:
        """Chase ``instance`` with the plan's rules toward a stable
        extension: a :class:`~repro.plan.executor.ChaseState` over
        ``candidate_pairs``, run for at most ``max_rounds`` rounds.

        ``candidate_pairs`` bounds the quadratic pair scan (every pair of
        ``instance`` when omitted); matchers pass the blocking backend's
        :class:`~repro.plan.blocking.CandidateSet`, chased as it is.
        Pairs in any other form are sorted into one, so the result does
        not depend on the order they were listed in.
        """
        pairs = CandidateSet.of(
            instance.tuple_pairs() if candidate_pairs is None else candidate_pairs
        )
        resolver = resolver if resolver is not None else prefer_informative
        return ChaseState(self, instance, pairs, resolver).run(max_rounds)

    def candidates(self, left: Relation, right: Relation) -> CandidateSet:
        """Candidate pairs from the plan's blocking backend."""
        if self.blocking is None:
            raise ValueError("this plan was compiled without a blocking backend")
        return self.blocking.candidates(left, right)

    # ------------------------------------------------------------------
    # Introspection (``repro plan explain``)
    # ------------------------------------------------------------------

    def recorded_metrics(self) -> Dict[str, List[str]]:
        """What this plan's instrumented execution will record.

        ``counters`` are the :class:`PlanStats` fields (always on);
        ``histograms`` and ``spans`` are recorded by the pipeline around
        this plan — histograms always, spans only when tracing is on
        (``observability`` in the spec, or ``--trace`` on the CLI).
        """
        return {
            "counters": [spec.name for spec in fields(PlanStats)],
            "histograms": [
                "chase.rounds", "chase.seconds", "match.seconds",
                "engine.ingest_seconds",
            ],
            "spans": [
                "compile", "enforce", "blocking", "chase",
                "chase-round", "resolve-merged",
                "stability-check", "provenance", "ingest",
            ],
        }

    def metric_binding(self, predicate: CompiledPredicate) -> str:
        """How the predicate's operator was resolved at compile time."""
        if predicate.operator == EQ:
            return "exact equality"
        name, _, theta = predicate.operator.partition("(")
        metric = self.registry.metric(name)
        return f"{type(metric).__name__} >= {theta.rstrip(')')}"

    def rhs_groups(self) -> List[Tuple[Tuple[Tuple[str, str], ...], Tuple[str, ...]]]:
        """The RHS attribute groups of a chase — ``(its (left, right)
        attribute pairs, the rules writing them)``, one union per pair and
        group (:class:`ChaseLayout`)."""
        layout = self.layout
        return [
            (
                tuple(
                    (layout.left_names[left], layout.right_names[right])
                    for left, right in pairs
                ),
                tuple(
                    rule.name
                    for rule, writes in zip(self.rules, layout.writes)
                    if writes >> group & 1
                ),
            )
            for group, pairs in enumerate(layout.groups)
        ]

    def to_dict(self) -> Dict[str, object]:
        """The compiled plan as a JSON-serializable document."""
        return {
            "schema": {"left": self.pair.left.name, "right": self.pair.right.name},
            "predicates": [
                {
                    "index": predicate.index,
                    "left": predicate.left,
                    "right": predicate.right,
                    "operator": predicate.operator,
                    "binding": self.metric_binding(predicate),
                }
                for predicate in self.predicates
            ],
            "rules": [
                {
                    "name": rule.name,
                    "lhs": list(rule.lhs),
                    "rhs": [list(pair) for pair in rule.rhs],
                }
                for rule in self.rules
            ],
            "rhs_groups": [
                {"rhs": [list(pair) for pair in pairs], "rules": list(writers)}
                for pairs, writers in self.rhs_groups()
            ],
            "keys": [
                {"name": key.name, "predicates": list(key.predicates)}
                for key in self.keys
            ],
            "blocking": self.blocking.describe() if self.blocking else None,
            "atoms_before_dedup": self.atom_count,
            "unique_predicates": len(self.predicates),
            "observability": self.recorded_metrics(),
        }

    def explain(self) -> str:
        """Human-readable rendering of the compiled plan."""
        left_name = self.pair.left.name
        right_name = self.pair.right.name
        lines = [
            f"# EnforcementPlan over ({left_name}, {right_name})",
            f"# {len(self.rules)} rule(s), {len(self.keys)} key(s); "
            f"{self.atom_count} atom(s) compiled into "
            f"{len(self.predicates)} unique predicate(s)",
            "predicates:",
        ]
        for predicate in self.predicates:
            lines.append(
                f"  [{predicate.index}] {left_name}.{predicate.left} "
                f"{'=' if predicate.operator == EQ else '~' + predicate.operator} "
                f"{right_name}.{predicate.right}"
                f"  -> {self.metric_binding(predicate)}"
            )
        if self.rules:
            lines.append("rules:")
            for rule in self.rules:
                rhs = ", ".join(f"{l}<=>{r}" for l, r in rule.rhs)
                lines.append(
                    f"  {rule.name}: lhs {list(rule.lhs)} -> identify {rhs}"
                )
            lines.append("rhs groups (one union per pair and group):")
            for pairs, writers in self.rhs_groups():
                rhs = ", ".join(f"{l}<=>{r}" for l, r in pairs)
                lines.append(f"  {rhs}: written by {', '.join(writers)}")
        if self.keys:
            lines.append("keys:")
            for key in self.keys:
                lines.append(f"  {key.name}: predicates {list(key.predicates)}")
        lines.append(
            "blocking: "
            + (self.blocking.describe() if self.blocking else "(none)")
        )
        recorded = self.recorded_metrics()
        lines.append("observability:")
        lines.append("  counters: " + ", ".join(recorded["counters"]))
        lines.append("  histograms: " + ", ".join(recorded["histograms"]))
        lines.append("  spans (with tracing on): " + ", ".join(recorded["spans"]))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EnforcementPlan({len(self.rules)} rules, {len(self.keys)} keys, "
            f"{len(self.predicates)} predicates)"
        )


def compile_plan(
    sigma: Sequence[MatchingDependency] = (),
    target: Optional[ComparableLists] = None,
    rcks: Optional[Sequence[RelativeKey]] = None,
    top_k: int = 5,
    registry: MetricRegistry = DEFAULT_REGISTRY,
    blocking: Optional[BlockingBackend] = None,
) -> EnforcementPlan:
    """Compile MDs (and/or RCKs) into an :class:`EnforcementPlan`.

    ``rcks=None`` with a ``target`` deduces the top ``top_k`` RCKs from
    Σ; ``target=None`` compiles a chase-only plan with no keys (a one-off
    chase: ``compile_plan(sigma=Σ).enforce(instance, …)``).  An empty Σ compiles the
    keys as the rules, Σ_Γ = {ψ.to_md() | ψ ∈ Γ}, named ``rck{i}`` like
    the keys (what a ``direct`` spec runs).  The plan generates
    candidates with the ``blocking`` backend it is handed
    (:func:`~repro.plan.blocking.build_blocking` resolves a spec's
    ``blocking`` section to one); without one,
    :meth:`EnforcementPlan.candidates` raises.
    """
    sigma = list(sigma)
    if rcks is None:
        if sigma and target is not None:
            rcks = find_rcks(sigma, target, m=top_k)
        else:
            rcks = []
    else:
        rcks = list(rcks)
    if not sigma and not rcks:
        raise ValueError("need at least one MD or RCK to compile a plan")
    # A plan with no MDs chases its keys: Σ_Γ, each rule named after its
    # key (Section 2.2: a key relative to (Y1, Y2) is an MD whose RHS is
    # the target).
    prefix = "md"
    if not sigma:
        sigma, prefix = [key.to_md() for key in rcks], "rck"
    if target is None and rcks:
        # Every relative key carries its target; adopt it so key-only
        # plans still get the match read-off.
        target = rcks[0].target

    pair = sigma[0].pair

    slots: Dict[Tuple[str, str, str], int] = {}
    predicates: List[CompiledPredicate] = []
    atom_count = 0

    def slot_of(left: str, right: str, operator: str) -> int:
        nonlocal atom_count
        atom_count += 1
        key = (left, right, operator)
        found = slots.get(key)
        if found is not None:
            return found
        index = len(predicates)
        predicates.append(
            CompiledPredicate(
                index,
                left,
                right,
                operator,
                registry.resolve(operator),
                cacheable=operator != EQ,
            )
        )
        slots[key] = index
        return index

    rules = tuple(
        CompiledRule(
            name=f"{prefix}{position}",
            lhs=tuple(
                slot_of(atom.left, atom.right, atom.operator.name)
                for atom in dependency.lhs
            ),
            rhs=tuple(
                (atom.left, atom.right) for atom in dependency.rhs
            ),
            source=dependency,
        )
        for position, dependency in enumerate(sigma)
    )
    keys = tuple(
        CompiledKey(
            name=f"rck{position}",
            predicates=tuple(
                slot_of(atom.left, atom.right, atom.operator.name)
                for atom in key.atoms
            ),
            source=key,
        )
        for position, key in enumerate(rcks)
    )

    plan = EnforcementPlan(
        pair=pair,
        sigma=sigma,
        rcks=rcks,
        predicates=predicates,
        rules=rules,
        keys=keys,
        registry=registry,
        target=target,
        blocking=blocking,
        atom_count=atom_count,
    )
    # Each compile charges the new plan's own counter exactly once, so a
    # caller holding one plan can assert it was compiled once (`compiles``
    # stays 1 no matter how many executions the plan serves).
    plan.stats.compiles = 1
    return plan
