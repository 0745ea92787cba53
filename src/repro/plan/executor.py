"""The enforcement chase, executed over a compiled plan.

One kernel, :func:`chase`, rule-at-a-time over **flat arrays**.  The
encoding has a half per plan (:class:`~repro.core.semantics.ChaseLayout`:
the chase attributes' ranks in sorted-name order and the rules as rank
offsets, built at compile time) and a half per chase
(:class:`~repro.core.semantics.CellClasses`: the tuples the candidate
pairs mention get positions in sorted-tid order); a cell is the int
``side_base + position * width + rank``, so int order is ``(side, tid,
attribute)`` order.  Everything the chase keeps is a list indexed by
such ints:

* **classes** — ``root`` / ``size`` / ``next`` in ``CellClasses``; the
  round loop inlines the union (relabel the smaller class along its
  ``next`` ring, swap two pointers to join the rings);
* **values** — one flat working list indexed by *slot*, filled by the
  instance's ``project`` (a ``Relation``'s, or a store view's).  Between
  two relations a cell is its own slot.  Over shared storage
  (``left is right``) a right cell's slot is its left twin's, so a
  repair through either side tag lands where both read it — and only
  there is the order of the unions observable, so only there it is kept
  pair-major;
* **selections** — lists of positions into the candidate list, narrowed
  per rule atom by atom: equality atoms first, each one comprehension
  reading ``values[left_slot[i] + rank]``, similarity atoms last through
  the plan's value-keyed memo
  (:meth:`~repro.plan.compile.EnforcementPlan.evaluate`).  Cheap
  selective atoms prune before an expensive one runs (the FAQ ordering),
  and a metric is computed once per distinct value pair (the FDB saving).

The input instance is only read.  The result
(:class:`~repro.core.semantics.EnforcementResult`) carries what the chase
already knows instead of making callers re-derive it — ``repairs`` (the
cell-wise diff; ``instance`` is ``D`` + repairs, built on first access)
and ``matches`` (a root comparison per pair) — and answers the rest when
asked: ``stable`` and ``holding`` (per rule, the pairs whose LHS holds in
``D'`` — the stability check's own selections, which are also every
match's provenance) run the check on first read.  The kernel reads them
itself only where ``rounds_exhausted`` depends on the answer.

``repro.core.semantics.enforce`` compiles a throwaway plan and delegates
here; :class:`~repro.api.workspace.Workspace` and the streaming
:class:`~repro.engine.matcher.IncrementalMatcher` it builds hold one
long-lived plan and call :meth:`EnforcementPlan.enforce`, sharing the
layouts and the memo across runs and ingests (the engine reads matches
only, so its delta chases run no stability pass).
"""

from __future__ import annotations

import time
from operator import itemgetter, ne
from typing import Dict, List, Optional, Sequence, Set

from repro.core.semantics import (
    CellClasses,
    EnforcementResult,
    InstancePair,
    ValueResolver,
    prefer_informative,
)

from .blocking import Pair


def chase(
    plan,
    instance: InstancePair,
    resolver: ValueResolver = prefer_informative,
    candidate_pairs: Optional[Sequence[Pair]] = None,
    max_rounds: int = 100,
) -> EnforcementResult:
    """Chase ``instance`` with the plan's compiled rules to a stable extension.

    Each round evaluates every rule's LHS on the active pairs against the
    *current* values, a slot at a time, merges the RHS cells of the pairs
    that matched, and re-resolves every class that grew to a single
    value.  Rounds repeat until no merge happens.  ``instance`` is only
    ever read (the paper: "in the matching process instance D may not be
    updated"): the result carries the repairs, and builds ``D'`` from
    them when asked.

    None of the kernel's economies is observable in the result.  Within a
    round the instance is fixed, so the set of firing (rule, pair)s does
    not depend on evaluation order, and the count of successful unions is
    the drop in the number of cell classes whatever order they run in.
    Rounds after the first re-examine only pairs one of whose tuples a
    repair actually changed (an unchanged pair's verdicts cannot change),
    and skip a (rule, pair) that already fired (its RHS cells are merged
    for good, so its unions would all be idempotent); the stability
    check, run when the result is first asked, re-examines only what
    fired or is still active.

    ``candidate_pairs`` bounds the quadratic pair scan; matchers pass the
    output of the plan's blocking backend here.
    """
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
    layout = plan.layouts[instance.left is instance.right]
    shared, rules = layout.shared, layout.rules
    cells = CellClasses(pairs, layout)
    root, size, ring = cells.root, cells.size, cells.next
    left_cells, right_cells = cells.left_cells, cells.right_cells
    right_base = cells.right_base
    left_width, right_width = len(layout.left_names), len(layout.right_names)
    # The working values, one per slot.  Between two relations a cell is
    # its own slot.  Over shared storage a right cell's slot is its left
    # twin's: a repair through either side tag lands where both read it.
    values = instance.left.project(cells.left_tids, layout.left_names)
    if shared:
        left_slots = left_cells
        right_slots = [cell - right_base for cell in right_cells]
    else:
        values += instance.right.project(cells.right_tids, layout.right_names)
        left_slots, right_slots = left_cells, right_cells
    evaluate = plan.evaluate

    def select(selection, equalities, similarities):
        """The positions of ``selection`` whose pair matches one rule's LHS.

        Equality is the paper's ``=``: never true on a null
        (:func:`repro.metrics.base.exact_equality`, inlined).
        """
        for left, right in equalities:
            if not selection:
                break
            stats.metric_evaluations += len(selection)
            selection = [
                i
                for i in selection
                if (v := values[left_slots[i] + left]) is not None
                and (w := values[right_slots[i] + right]) is not None
                and v == w
            ]
        for predicate, left, right in similarities:
            if not selection:
                break
            selection = [
                i
                for i in selection
                if evaluate(
                    predicate,
                    values[left_slots[i] + left],
                    values[right_slots[i] + right],
                )
            ]
        return selection

    everything = range(len(pairs))
    applications = 0
    rounds = 0
    active: Sequence[int] = everything
    fired: List[Set[int]] = [set() for _ in rules]
    #: slot -> the value it held in ``instance``, for every slot written.
    written: Dict[int, object] = {}
    merged_this_round = False
    while rounds < max_rounds:
        rounds += 1
        round_span = tracer.span("chase-round", round=rounds, active=len(active))
        round_span.__enter__()
        firing = []
        for (equalities, similarities, rhs), already in zip(rules, fired):
            selection = select(
                [i for i in active if i not in already] if already else active,
                equalities,
                similarities,
            )
            already.update(selection)
            firing.append((selection, rhs))
        if shared:
            # Over shared storage one tuple's slot can sit in two classes
            # (tagged left in one, right in the other), and then the order
            # classes are resolved in is observable.  It follows the order
            # of the unions: keep that pair-major, rules in declared order
            # within a pair (the sort is stable).  Between two relations
            # classes never share storage and no order is observable.
            firing = [
                ((i,), rhs)
                for i, rhs in sorted(
                    ((i, rhs) for selection, rhs in firing for i in selection),
                    key=itemgetter(0),
                )
            ]
        touched: List[int] = []
        for selection, rhs in firing:
            for left, right in rhs:
                for i in selection:
                    # Union by size over the flat root / size / next lists.
                    a = root[left_cells[i] + left]
                    b = root[right_cells[i] + right]
                    if a != b:
                        if size[a] < size[b]:
                            a, b = b, a
                        size[a] += size[b]
                        member = b
                        while True:
                            root[member] = a
                            member = ring[member]
                            if member == b:
                                break
                        ring[a], ring[b] = ring[b], ring[a]
                        touched.append(a)
        merged_this_round = bool(touched)
        applications += len(touched)
        round_span.set("merges", len(touched))
        if not merged_this_round:
            # Nothing was repaired: every active pair has just been
            # examined against the final instance.
            active = []
            round_span.__exit__(None, None, None)
            break
        # Re-resolve every class that gained a member this round
        # (``touched`` holds one member per successful union).  A class
        # whose membership did not change already carries the one value
        # the previous round's resolution wrote everywhere, so
        # re-resolving it is a no-op for any resolver that is a function
        # of the member value multiset (all named policies are).
        changed: Set[int] = set()
        with tracer.span("resolve-merged") as resolve_span:
            seen: Set[int] = set()
            repaired = 0
            for anchor in touched:
                anchor = root[anchor]
                if anchor in seen:
                    continue
                seen.add(anchor)
                # The resolver sees the members in (side, tid, attribute)
                # order — int order — not in the order of the unions.
                slots = sorted(cells.ring(anchor))
                if shared:
                    slots = [slot % right_base for slot in slots]
                resolved = resolver([values[slot] for slot in slots])
                for slot in slots:
                    if values[slot] != resolved:
                        written.setdefault(slot, values[slot])
                        values[slot] = resolved
                        repaired += 1
                        # The first slot of the tuple written to: only its
                        # pairs can behave differently next round.
                        changed.add(
                            slot - slot % left_width
                            if slot < right_base
                            else slot - (slot - right_base) % right_width
                        )
            resolve_span.set("repairs", repaired)
        active = [
            i
            for i in everything
            if left_slots[i] in changed or right_slots[i] in changed
        ]
        round_span.__exit__(None, None, None)

    def check():
        """Stability: ``(D', D') ⊨ Σ`` — for every pair matching a rule's
        LHS in D', the RHS cells must carry equal values.  (With original
        and extended both D', the "LHS still matches" recheck is the same
        evaluation.)  Only a (rule, pair) that fired, or a pair still
        active — dirtied by the last permitted round's repairs, or never
        examined because no round was permitted — can match now: any
        other was last evaluated against the values its tuples still
        carry, and did not match.  The selections are kept for every
        rule, also past the first unstable one: they are ``holding``.
        The RHS test compares values, not classes — merged cells that
        carry a value unequal to itself (NaN) are not identified.
        Returns ``(stable, holding)``; the span nests under whoever asked.
        """
        stable = True
        holding: List[List[int]] = []
        with tracer.span("stability-check") as span:
            for rule, (equalities, similarities, rhs), already in zip(
                plan.rules, rules, fired
            ):
                selection = select(
                    sorted(already.union(active)), equalities, similarities
                )
                holding.append(selection)
                if stable and selection:
                    lefts = [left_slots[i] for i in selection]
                    rights = [right_slots[i] for i in selection]
                    for left, right in rhs:
                        if any(map(
                            ne,
                            [values[slot + left] for slot in lefts],
                            [values[slot + right] for slot in rights],
                        )):
                            stable = False
                            span.set("unstable_rule", rule.name)
                            break
        return stable, holding

    repairs = {}
    for slot, before in written.items():
        if values[slot] != before:
            repairs[cells.decode(slot)] = values[slot]
            if shared:
                repairs[cells.decode(slot + right_base)] = values[slot]
    result = EnforcementResult(
        instance, repairs, rounds, cells, applications, check
    )
    stats.chase_rounds += rounds
    stats.rule_applications += applications
    chase_span.set("rounds", rounds)
    chase_span.set("applications", applications)
    # Exhaustion: the round budget ran out AND the result is not a
    # fixpoint — the last permitted round still merged, or no round was
    # permitted at all.  A chase whose last permitted round merged but
    # left a stable instance did converge — further rounds could only
    # merge cells that already carry equal values, never rewrite one —
    # so only instability makes the cut-off observable, and only here
    # does the kernel itself need the stability check's answer.
    if merged_this_round or rounds == 0:
        chase_span.set("stable", result.stable)
        if not result.stable:
            result.rounds_exhausted = True
            stats.rounds_exhausted += 1
            # Record the cut-off (the ``stability-check`` child span
            # names the rule whose RHS was still unequal at the budget)
            # and the full rule set in play.
            chase_span.set("rounds_exhausted", True)
            chase_span.set("rule_set", [rule.name for rule in plan.rules])
    chase_span.__exit__(None, None, None)
    plan.metrics.observe("chase.rounds", rounds)
    plan.metrics.observe("chase.seconds", time.perf_counter() - chase_start)
    return result
