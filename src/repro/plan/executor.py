"""The enforcement chase, executed over a compiled plan.

One kernel, :func:`chase`, columnar and rule-at-a-time.  Column views of
the working copy (``attribute -> {tid: value}``) are built once per
chase; each round narrows, per rule, a selection list of the active
pairs atom by atom — equality atoms first, each one comprehension over
two columns, similarity atoms last through the plan's value-keyed memo
(:meth:`~repro.plan.compile.EnforcementPlan.evaluate`) — and unions the
RHS cells of the survivors only.  Cheap selective atoms prune before an
expensive one runs (the FAQ ordering), and a metric is computed once per
distinct value pair (the FDB saving) without materialising anything per
candidate pair.

``repro.core.semantics.enforce`` compiles a throwaway plan and delegates
here; :class:`~repro.api.workspace.Workspace`, the batch
:class:`~repro.matching.pipeline.EnforcementMatcher` and the streaming
:class:`~repro.engine.matcher.IncrementalMatcher` hold a long-lived plan
and call :meth:`EnforcementPlan.enforce`, sharing the memo across runs
and ingests; the pool workers of :mod:`repro.plan.parallel` call the same
function on their shard bins.
"""

from __future__ import annotations

import operator
import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.semantics import (
    Cell,
    EnforcementResult,
    InstancePair,
    ValueResolver,
    _CellUnionFind,
    prefer_informative,
)
from repro.core.schema import LEFT, RIGHT

from .blocking import Pair

#: ``attribute -> {tid: value}`` for one side of the working copy.
Columns = Dict[str, Dict[int, object]]


def _resolve_touched(
    working: InstancePair,
    columns: Tuple[Columns, Columns],
    cells: _CellUnionFind,
    touched: Iterable[Cell],
    resolver: ValueResolver,
    tracer,
) -> Tuple[Set[int], Set[int]]:
    """Re-resolve every class that gained a member this round.

    ``touched`` holds one anchor cell per successful union of the round;
    a class whose membership did not change already carries the one value
    the previous round's resolution wrote everywhere, so re-resolving it
    is a no-op for any resolver that is a function of the member value
    multiset (all named policies are).  Repairs write through to both the
    relation and its column.

    Returns the left and right tids a write actually changed — only their
    pairs can behave differently next round.
    """
    relations = (working.left, working.right)
    changed_left: Set[int] = set()
    # One storage serving both sides: a write through either side tag
    # dirties the tuple's pairs on both.
    changed = (
        changed_left,
        changed_left if working.left is working.right else set(),
    )
    with tracer.span("resolve-merged") as resolve_span:
        seen_roots: Set[Cell] = set()
        repairs = 0
        for anchor in touched:
            root = cells.find(anchor)
            if root in seen_roots:
                continue
            seen_roots.add(root)
            # The resolver sees a *sorted* member order: the class is a
            # set, and set iteration order depends on the process hash
            # seed — an order-dependent policy (first-non-null) would
            # otherwise resolve differently in spawn workers than in the
            # serial parent.
            members = sorted(cells.members(root))
            resolved = resolver(
                [columns[side][attr][tid] for side, tid, attr in members]
            )
            for side, tid, attr in members:
                column = columns[side][attr]
                if column[tid] != resolved:
                    column[tid] = resolved
                    relations[side].set_value(tid, attr, resolved)
                    changed[side].add(tid)
                    repairs += 1
        resolve_span.set("repairs", repairs)
    return changed


def chase(
    plan,
    instance: InstancePair,
    resolver: ValueResolver = prefer_informative,
    candidate_pairs: Optional[Sequence[Pair]] = None,
    max_rounds: int = 100,
) -> EnforcementResult:
    """Chase ``instance`` with the plan's compiled rules to a stable extension.

    Each round evaluates every rule's LHS on the active pairs against the
    *current* instance, a column at a time, merges the RHS cells of the
    pairs that matched, and re-resolves every class that grew to a single
    value.  Rounds repeat until no merge happens.  The original
    ``instance`` is never mutated (the paper: "in the matching process
    instance D may not be updated").

    None of the kernel's economies is observable in the result.  Within a
    round the instance is fixed, so the set of firing (rule, pair)s does
    not depend on evaluation order, and the count of successful unions is
    the drop in the number of cell classes whatever order they run in.
    Rounds after the first re-examine only pairs one of whose tuples a
    repair actually changed (an unchanged pair's verdicts cannot change),
    and skip a (rule, pair) that already fired (its RHS cells are merged
    for good, so its unions would all be idempotent); the final
    stability check re-examines only what fired or is still active.

    ``candidate_pairs`` bounds the quadratic pair scan; matchers pass the
    output of the plan's blocking backend here.
    """
    working = instance.copy()
    cells = _CellUnionFind()
    pairs: List[Pair] = (
        list(candidate_pairs)
        if candidate_pairs is not None
        else list(instance.tuple_pairs())
    )
    stats = plan.stats
    stats.enforcements += 1
    stats.pairs_compared += len(pairs)
    tracer = plan.tracer
    chase_start = time.perf_counter()

    chase_span = tracer.span(
        "chase", pairs=len(pairs), rules=len(plan.rules), max_rounds=max_rounds
    )
    chase_span.__enter__()
    shared = working.left is working.right
    left_names, right_names = plan.chase_attributes
    if shared:
        # One storage serves both sides, so one set of columns does too:
        # a repair through either side tag lands where both read it.
        left_columns = right_columns = {
            name: working.left.column(name)
            for name in dict.fromkeys(left_names + right_names)
        }
    else:
        left_columns = {name: working.left.column(name) for name in left_names}
        right_columns = {name: working.right.column(name) for name in right_names}
    columns = (left_columns, right_columns)
    # A selection is a list of positions into ``pairs``.
    lefts = [left_tid for left_tid, _ in pairs]
    rights = [right_tid for _, right_tid in pairs]
    evaluate = plan.evaluate

    def select(selection, equalities, similarities):
        """The positions of ``selection`` whose pair matches one rule's LHS.

        Equality is the paper's ``=``: never true on a null
        (:func:`repro.metrics.base.exact_equality`, inlined).
        """
        for left_attr, right_attr in equalities:
            if not selection:
                break
            stats.metric_evaluations += len(selection)
            cl, cr = left_columns[left_attr], right_columns[right_attr]
            selection = [
                i
                for i in selection
                if (v := cl[lefts[i]]) is not None
                and (w := cr[rights[i]]) is not None
                and v == w
            ]
        for predicate in similarities:
            if not selection:
                break
            cl, cr = left_columns[predicate.left], right_columns[predicate.right]
            selection = [
                i
                for i in selection
                if evaluate(predicate, cl[lefts[i]], cr[rights[i]])
            ]
        return selection

    everything = range(len(pairs))
    union = cells.union
    applications = 0
    rounds = 0
    active = everything
    fired: List[Set[int]] = [set() for _ in plan.rules]
    merged_this_round = False
    while rounds < max_rounds:
        rounds += 1
        round_span = tracer.span("chase-round", round=rounds, active=len(active))
        round_span.__enter__()
        firing: List[Tuple[int, object]] = []
        for rule, (equalities, similarities), already in zip(
            plan.rules, plan.selections, fired
        ):
            selection = select(
                [i for i in active if i not in already] if already else active,
                equalities,
                similarities,
            )
            already.update(selection)
            firing += [(i, rule.rhs) for i in selection]
        if shared:
            # Over shared storage one tuple's cell can sit in two classes
            # (tagged left in one, right in the other), and then the order
            # classes are resolved in is observable.  It follows the order
            # of the unions: keep that pair-major, rules in declared order
            # within a pair (the sort is stable).  Between two relations
            # classes never share storage and no order is observable.
            firing.sort(key=lambda entry: entry[0])
        touched: List[Cell] = []
        for i, rhs in firing:
            left_tid, right_tid = lefts[i], rights[i]
            for left_attr, right_attr in rhs:
                left_cell: Cell = (LEFT, left_tid, left_attr)
                if union(left_cell, (RIGHT, right_tid, right_attr)):
                    touched.append(left_cell)
        merged_this_round = bool(touched)
        applications += len(touched)
        round_span.set("merges", len(touched))
        if not merged_this_round:
            # Nothing was repaired: every active pair has just been
            # examined against the final instance.
            active = []
            round_span.__exit__(None, None, None)
            break
        changed_left, changed_right = _resolve_touched(
            working, columns, cells, touched, resolver, tracer
        )
        active = [
            i
            for i in everything
            if lefts[i] in changed_left or rights[i] in changed_right
        ]
        round_span.__exit__(None, None, None)

    # Stability: (D', D') ⊨ Σ — for every pair matching a rule's LHS in
    # D', the RHS cells must carry equal values.  (With original and
    # extended both D', the "LHS still matches" recheck is the same
    # evaluation.)  Only a (rule, pair) that fired, or a pair still active
    # — dirtied by the last permitted round's repairs, or never examined
    # because no round was permitted — can match now: any other was last
    # evaluated against the values its tuples still carry, and did not
    # match.
    unstable_rule = None
    with tracer.span("stability-check"):
        for rule, (equalities, similarities), already in zip(
            plan.rules, plan.selections, fired
        ):
            selection = select(
                list(already.union(active)), equalities, similarities
            )
            left_tids = [lefts[i] for i in selection]
            right_tids = [rights[i] for i in selection]
            for left_attr, right_attr in rule.rhs:
                if any(map(
                    operator.ne,
                    map(left_columns[left_attr].__getitem__, left_tids),
                    map(right_columns[right_attr].__getitem__, right_tids),
                )):
                    unstable_rule = rule.name
                    break
            if unstable_rule is not None:
                break
    stable = unstable_rule is None
    # Exhaustion: the round budget ran out AND the result is not a
    # fixpoint — the last permitted round still merged, or no round was
    # permitted at all.  A chase whose last permitted round merged but
    # left a stable instance did converge — further rounds could only
    # merge cells that already carry equal values, never rewrite one —
    # so only instability makes the cut-off observable.
    rounds_exhausted = (merged_this_round or rounds == 0) and not stable
    stats.chase_rounds += rounds
    stats.rule_applications += applications
    chase_span.set("rounds", rounds)
    chase_span.set("applications", applications)
    chase_span.set("stable", stable)
    if rounds_exhausted:
        stats.rounds_exhausted += 1
        # Record what triggered the cut-off: a rule whose RHS was still
        # unequal at the budget, and the full rule set in play.
        chase_span.set("rounds_exhausted", True)
        chase_span.set("unstable_rule", unstable_rule)
        chase_span.set("rule_set", [rule.name for rule in plan.rules])
    chase_span.__exit__(None, None, None)
    plan.metrics.observe("chase.rounds", rounds)
    plan.metrics.observe("chase.seconds", time.perf_counter() - chase_start)
    return EnforcementResult(
        working, stable, rounds, cells, applications, rounds_exhausted
    )
