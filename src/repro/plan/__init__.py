"""The enforcement kernel: compile rules once, execute them everywhere.

MDs and RCKs are declarative; this package lowers a rule set into one
executable :class:`~repro.plan.compile.EnforcementPlan` — deduplicated
comparison predicates with metrics resolved at compile time, a value-keyed
similarity memo cache, a pluggable blocking backend, and the one
enforcement-chase kernel (:mod:`repro.plan.executor`): rule-at-a-time
over int-encoded cells in flat lists, it narrows the candidate pairs
through each rule's equality atoms before a similarity atom runs —
shared by batch matching (:class:`repro.api.Workspace`), the streaming
engine (:mod:`repro.engine`), the experiments, and the CLI
(``repro plan explain``).  The chase is serial and runs in the calling
process; README "Execution" has the measurements behind that.

Layering: :mod:`repro.plan` depends only on ``core``, ``metrics`` and
``relations``; the matching and engine layers depend on it, never the
other way around (``repro.core.semantics.enforce`` delegates to the
kernel through a deliberate lazy import).

Typical use::

    from repro.plan import HashBlockingBackend, compile_plan

    blocking = HashBlockingBackend.per_rck(rcks)
    plan = compile_plan(sigma, target, rcks=rcks, blocking=blocking)
    pairs = plan.candidates(credit, billing)
    result = plan.enforce(instance, candidate_pairs=pairs)
    print(plan.stats.metric_evaluations, plan.stats.cache_hits)
"""

from .blocking import (
    DEFAULT_ENCODED_ATTRIBUTES,
    BlockingBackend,
    CandidateSet,
    HashBlockingBackend,
    Pair,
    RCKIndex,
    RowKey,
    attribute_key,
    build_blocking,
    hash_candidates,
    indexes_from_rcks,
    leading_attribute_pairs,
)
from .compile import (
    DEFAULT_CACHE_LIMIT,
    CompiledKey,
    CompiledPredicate,
    CompiledRule,
    EnforcementPlan,
    PlanStats,
    compile_plan,
)
from .executor import chase
from .sn_index import WindowedSNIndex

__all__ = [
    "BlockingBackend",
    "CandidateSet",
    "CompiledKey",
    "CompiledPredicate",
    "CompiledRule",
    "DEFAULT_CACHE_LIMIT",
    "DEFAULT_ENCODED_ATTRIBUTES",
    "EnforcementPlan",
    "HashBlockingBackend",
    "Pair",
    "PlanStats",
    "RCKIndex",
    "RowKey",
    "WindowedSNIndex",
    "attribute_key",
    "build_blocking",
    "chase",
    "compile_plan",
    "hash_candidates",
    "indexes_from_rcks",
    "leading_attribute_pairs",
]
