"""Chase candidate-pair shards across a ``multiprocessing`` pool.

:func:`parallel_chase` is the parallel twin of
:func:`repro.plan.executor.chase`.  The pipeline:

1. :func:`repro.plan.shard.shard_pairs` splits the candidate pairs into
   connected-component shards — pairs sharing no tuple chase
   independently (see that module for why this is sound);
2. the shards are packed into per-worker bins
   (:func:`~repro.plan.shard.assign_shards`) and each bin is chased in a
   worker process by the same kernel.  Compiled plans hold resolved
   metric callables and closures, so they do not pickle; every worker
   instead **rebuilds the plan from the pickled**
   :class:`~repro.api.spec.ResolutionSpec` **document** once (pool
   initializer) and receives only its bin's rows and pairs;
3. the parent merges the per-shard results: it unions the per-shard
   merge classes into one :class:`~repro.core.semantics.CellClasses` over
   the full pair list and collects the per-shard repairs and ``holding``
   pairs.  Shards share no tuple, so that union *is* the result: every
   class already carries the value its shard's last resolution wrote.

**Fallback to the serial loop** (documented guarantee): the serial
:func:`~repro.plan.executor.chase` runs instead whenever parallelism
cannot pay or cannot be proven equivalent — fewer than ``min_pairs``
candidate pairs (pool start-up dominates on small inputs), a single
connected component (nothing to parallelize), ``workers <= 1``, no spec
document to rebuild the plan from, or a resolver that is not the spec's
named policy (worker processes can only look policies up by name).
Sorted-neighborhood specs used to hit the single-component fallback
unconditionally — the legacy batch backend's overlapping windows
chained every pair together; the rank-encoded
:class:`~repro.plan.sn_index.WindowedSNIndex` splits its runs at block
boundaries, so SN workloads now shard like hash workloads and that
fallback fires only for genuinely chained (one-block) instances.
Either path returns the same :class:`~repro.core.semantics.EnforcementResult`
contents for a converged chase; the differential suite
(``tests/plan/test_parallel_equivalence.py``) and the Hypothesis
properties (``tests/plan/test_chase_properties.py``) pin that claim.

The pool start method follows ``multiprocessing``'s platform default;
set ``REPRO_PARALLEL_START_METHOD=spawn|fork|forkserver`` (or pass
``start_method``) to force one — CI runs the differential suite under
both ``spawn`` and ``fork``.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.parser import format_md
from repro.core.semantics import (
    Cell,
    CellClasses,
    EnforcementResult,
    InstancePair,
    ValueResolver,
    prefer_informative,
)
from repro.obs.trace import Tracer
from repro.relations.relation import Relation

from .blocking import Pair
from .executor import chase
from .shard import assign_shards, shard_pairs

#: Below this many candidate pairs the serial loop runs instead — pool
#: start-up and plan re-compilation dominate any parallel win on small
#: inputs.  (Tests monkeypatch this to force the pool on tiny data.)
PARALLEL_MIN_PAIRS = 64

#: Environment override for the pool start method (CI runs the
#: differential suite under both ``spawn`` and ``fork``).
START_METHOD_ENV = "REPRO_PARALLEL_START_METHOD"

#: Row payload: tid -> attribute values.
_Rows = Dict[int, Dict[str, object]]


@dataclass(frozen=True)
class ShardTask:
    """One worker bin: the rows its pairs touch, and the pairs.

    ``right_rows`` is ``None`` for a self-matching (shared) instance —
    the worker then builds one relation serving both sides, mirroring
    :meth:`~repro.core.semantics.InstancePair.copy` semantics.
    ``trace`` asks the worker to record its own span tree and ship it
    back serialized (the parent merges it under the pool span).
    """

    left_rows: _Rows
    right_rows: Optional[_Rows]
    pairs: Tuple[Pair, ...]
    max_rounds: int
    trace: bool = False


@dataclass(frozen=True)
class ShardOutcome:
    """What one worker bin's chase produced, in picklable form."""

    groups: Tuple[Tuple[Cell, ...], ...]
    repairs: Dict[Cell, object]
    #: Per rule, the pairs whose LHS holds in the chased bin (pairs, not
    #: positions: the parent re-indexes them into the full pair list).
    holding: Tuple[Tuple[Pair, ...], ...]
    stable: bool
    rounds: int
    applications: int
    rounds_exhausted: bool
    metric_evaluations: int
    cache_hits: int
    #: Serialized root spans of the worker's chase (empty unless the
    #: task asked for tracing).
    spans: Tuple[Dict[str, object], ...] = ()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Per-process state set by the pool initializer: (plan, resolver).
_WORKER: Tuple[object, ValueResolver] = (None, prefer_informative)


def _init_worker(spec_document: Dict[str, object]) -> None:
    """Rebuild the compiled plan from the spec document, once per worker."""
    global _WORKER
    # Deliberate lazy import: repro.api sits above repro.plan in the
    # layering; only worker processes (and the fallback guard) reach up.
    from repro.api.workspace import Workspace

    workspace = Workspace.from_dict(spec_document)
    _WORKER = (workspace.plan, workspace.spec.resolver())


def _run_task(task: ShardTask) -> ShardOutcome:
    """Chase one bin against the worker's rebuilt plan."""
    plan, resolver = _WORKER
    left = Relation(plan.pair.left)
    for tid in sorted(task.left_rows):
        left.insert(task.left_rows[tid], tid=tid)
    if task.right_rows is None:
        right = left
    else:
        right = Relation(plan.pair.right)
        for tid in sorted(task.right_rows):
            right.insert(task.right_rows[tid], tid=tid)
    instance = InstancePair(plan.pair, left, right)

    stats = plan.stats
    evaluations_before = stats.metric_evaluations
    hits_before = stats.cache_hits
    # A traced parent asks each worker to record its own span tree; the
    # worker's plan is rebuilt per process, so swapping the tracer in
    # and out around one task is safe (tasks run sequentially per
    # process).
    worker_tracer = Tracer() if task.trace else None
    saved_tracer = plan.tracer
    if worker_tracer is not None:
        plan.tracer = worker_tracer
    try:
        result = chase(
            plan,
            instance,
            resolver=resolver,
            candidate_pairs=list(task.pairs),
            max_rounds=task.max_rounds,
        )
    finally:
        plan.tracer = saved_tracer

    return ShardOutcome(
        groups=tuple(
            tuple(sorted(group)) for group in result.merged_cells.classes()
        ),
        repairs=result.repairs,
        holding=tuple(
            tuple(task.pairs[i] for i in positions)
            for positions in result.holding
        ),
        stable=result.stable,
        rounds=result.rounds,
        applications=result.applications,
        rounds_exhausted=result.rounds_exhausted,
        metric_evaluations=stats.metric_evaluations - evaluations_before,
        cache_hits=stats.cache_hits - hits_before,
        spans=(
            tuple(span.to_dict() for span in worker_tracer.spans())
            if worker_tracer is not None
            else ()
        ),
    )


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


def plan_spec_document(plan) -> Optional[Dict[str, object]]:
    """A ResolutionSpec document workers can rebuild ``plan`` from.

    Pins the plan's exact rules: the MD text, the already-deduced RCK
    triples, and the default resolution policy.  Returns ``None`` when
    the plan is not expressible as a spec — compiled against a custom
    metric registry (alias bindings are not recoverable from resolved
    predicates) or without a target — in which case the caller must fall
    back to the serial chase.  :class:`~repro.api.Workspace` callers
    never need this: they pass their own spec's canonical document.
    """
    from repro.metrics.registry import DEFAULT_REGISTRY

    if plan.registry is not DEFAULT_REGISTRY or plan.target is None:
        return None
    pair = plan.pair
    return {
        "version": 1,
        "schema": {
            "left": {
                "name": pair.left.name,
                "attributes": list(pair.left.attribute_names),
            },
            "right": {
                "name": pair.right.name,
                "attributes": list(pair.right.attribute_names),
            },
        },
        "target": {
            "left": list(plan.target.left_list),
            "right": list(plan.target.right_list),
        },
        "rules": {
            "mds": [format_md(dependency) for dependency in plan.sigma],
            "rcks": [
                [
                    [atom.left, atom.right, atom.operator.name]
                    for atom in key.atoms
                ]
                for key in plan.rcks
            ],
        },
        # Workers must honor the parent plan's memoization settings —
        # a caller that disabled the cache (or bounded its memory) would
        # otherwise get the ~1M-entry default in every worker process.
        "execution": {
            "cache": plan.cached,
            "cache_limit": plan.cache_limit,
        },
    }


def _bin_tasks(
    instance: InstancePair,
    bins,
    shared: bool,
    max_rounds: int,
    trace: bool = False,
) -> List[ShardTask]:
    tasks = []
    for bin_ in bins:
        left_tids = sorted(set().union(*(shard.left_tids for shard in bin_)))
        right_tids = sorted(set().union(*(shard.right_tids for shard in bin_)))
        if shared:
            left_rows = {
                tid: instance.left[tid].values()
                for tid in sorted(set(left_tids) | set(right_tids))
            }
            right_rows = None
        else:
            left_rows = {tid: instance.left[tid].values() for tid in left_tids}
            right_rows = {
                tid: instance.right[tid].values() for tid in right_tids
            }
        tasks.append(
            ShardTask(
                left_rows=left_rows,
                right_rows=right_rows,
                pairs=tuple(pair for shard in bin_ for pair in shard.pairs),
                max_rounds=max_rounds,
                trace=trace,
            )
        )
    return tasks


def _policy_matches(spec_document, resolver: ValueResolver) -> bool:
    """Is ``resolver`` exactly the document's named resolution policy?

    Workers look resolvers up by name; an anonymous callable cannot be
    shipped, so a mismatch forces the serial path.
    """
    from repro.api.spec import VALUE_POLICIES

    section = spec_document.get("resolution", {})
    policy = "prefer-informative"
    if isinstance(section, dict):
        policy = section.get("policy", "prefer-informative")
    return VALUE_POLICIES.get(policy) is resolver


def parallel_chase(
    plan,
    instance: InstancePair,
    spec_document: Optional[Dict[str, object]] = None,
    resolver: ValueResolver = prefer_informative,
    candidate_pairs: Optional[Sequence[Pair]] = None,
    workers: int = 1,
    max_rounds: int = 100,
    min_pairs: Optional[int] = None,
    start_method: Optional[str] = None,
) -> EnforcementResult:
    """Chase ``instance`` in parallel; serial fallback when it cannot pay.

    Equivalent to :func:`~repro.plan.executor.chase` on the same inputs
    (same merged classes, repaired values, match decisions); see the
    module docstring for the shard/merge construction and the exact
    fallback conditions.  Only ``rounds`` differs observably in stats:
    the serial loop counts global rounds, the parallel path reports the
    maximum over its shard bins — the same number whenever the chase
    converges.
    """
    pairs: List[Pair] = (
        list(candidate_pairs)
        if candidate_pairs is not None
        else list(instance.tuple_pairs())
    )
    threshold = PARALLEL_MIN_PAIRS if min_pairs is None else min_pairs
    shared = instance.left is instance.right
    tracer = plan.tracer

    def serial(reason: str) -> EnforcementResult:
        # The satellite guarantee: why a workers>1 request ran serially
        # is recorded, not silent — in stats (``MatchReport.stats``) and
        # on the trace.
        plan.stats.serial_fallback_reason = reason
        with tracer.span("parallel-chase", pairs=len(pairs), workers=workers) as span:
            span.set("serial_fallback_reason", reason)
            return chase(
                plan,
                instance,
                resolver=resolver,
                candidate_pairs=pairs,
                max_rounds=max_rounds,
            )

    if workers <= 1:
        return serial("workers<=1")
    if spec_document is None:
        return serial("no-spec-document")
    if len(pairs) < threshold:
        return serial(f"below-min-pairs({len(pairs)}<{threshold})")
    if not _policy_matches(spec_document, resolver):
        return serial("unnamed-resolver")
    parallel_span = tracer.span(
        "parallel-chase", pairs=len(pairs), workers=workers
    )
    parallel_span.__enter__()
    with tracer.span("shard-pairs") as shard_span:
        shards = shard_pairs(pairs, shared=shared)
        shard_span.set("shards", len(shards))
    if len(shards) <= 1:
        # Annotate the span already open rather than opening a second
        # parallel-chase span: the trace shows one tree, reason included.
        plan.stats.serial_fallback_reason = "single-component"
        parallel_span.set("serial_fallback_reason", "single-component")
        try:
            return chase(
                plan,
                instance,
                resolver=resolver,
                candidate_pairs=pairs,
                max_rounds=max_rounds,
            )
        finally:
            parallel_span.__exit__(None, None, None)

    bins = assign_shards(shards, workers)
    tasks = _bin_tasks(
        instance, bins, shared, max_rounds, trace=tracer.enabled
    )
    method = start_method or os.environ.get(START_METHOD_ENV) or None
    context = multiprocessing.get_context(method)
    with tracer.span("pool", bins=len(bins), start_method=method or "default") as pool_span:
        with context.Pool(
            processes=len(bins), initializer=_init_worker, initargs=(spec_document,)
        ) as pool:
            outcomes = pool.map(_run_task, tasks)
        # Merge the per-worker span trees under the pool span, one
        # named thread row per bin, re-based to the pool's start (the
        # worker clock need not share the parent's epoch).
        if tracer.enabled:
            for index, outcome in enumerate(outcomes):
                tracer.attach(
                    outcome.spans, rebase_to=pool_span.start, worker=index
                )

    cells = CellClasses(pairs, plan.chase_attributes, shared)
    repairs: Dict[Cell, object] = {}
    with tracer.span("merge-shards") as merge_span:
        for outcome in outcomes:
            for group in outcome.groups:
                anchor = cells.cell(*group[0])
                for member in group[1:]:
                    cells.union(anchor, cells.cell(*member))
            repairs.update(outcome.repairs)

        # Shards are connected components: no class, repair or pair of
        # one shard touches a tuple of another, so the union of the shard
        # results is the result — every class already carries the value
        # its own shard's last resolution wrote.
        merge_span.set(
            "classes", sum(len(outcome.groups) for outcome in outcomes)
        )
    position = {pair: i for i, pair in enumerate(pairs)}
    holding = [
        sorted(
            position[pair] for outcome in outcomes for pair in outcome.holding[rule]
        )
        for rule in range(len(plan.rules))
    ]

    stats = plan.stats
    stats.enforcements += 1
    stats.pairs_compared += len(pairs)
    stats.chase_rounds += max(outcome.rounds for outcome in outcomes)
    stats.rule_applications += sum(o.applications for o in outcomes)
    stats.metric_evaluations += sum(o.metric_evaluations for o in outcomes)
    stats.cache_hits += sum(o.cache_hits for o in outcomes)
    stats.shards += len(shards)
    stats.parallel_chases += 1
    stats.workers_spawned += len(bins)
    stats.serial_fallback_reason = None
    rounds_exhausted = any(o.rounds_exhausted for o in outcomes)
    if rounds_exhausted:
        stats.rounds_exhausted += 1
    plan.metrics.observe(
        "chase.rounds", max(outcome.rounds for outcome in outcomes)
    )
    parallel_span.set("shards", len(shards))
    parallel_span.__exit__(None, None, None)
    return EnforcementResult(
        original=instance,
        repairs=repairs,
        stable=all(outcome.stable for outcome in outcomes),
        rounds=max(outcome.rounds for outcome in outcomes),
        merged_cells=cells,
        applications=sum(outcome.applications for outcome in outcomes),
        holding=holding,
        rounds_exhausted=rounds_exhausted,
    )
