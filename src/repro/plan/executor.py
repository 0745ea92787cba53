"""The enforcement chase, executed over a compiled plan.

One kernel, :func:`chase`, rule-at-a-time over **flat arrays**.  The
encoding has a half per plan (:class:`~repro.core.semantics.ChaseLayout`:
the chase attributes' ranks in sorted-name order and the rules as rank
offsets, built at compile time) and a half per chase
(:class:`~repro.core.semantics.CellClasses`: the tuples the candidate
pairs mention get positions in sorted-tid order); a cell is the int
``side_base + position * width + rank``, so int order is ``(side, tid,
attribute)`` order.  Everything the chase keeps is an array or a list
indexed by such ints:

* **classes** — ``root`` / ``size`` / ``next`` in ``CellClasses``, three
  ``array('i')``; the round loop inlines the union (relabel the smaller
  class along its ``next`` ring, swap two entries to join the rings),
  once per (pair, RHS group) and only over the group representative's
  cells (the layout's RHS groups: pairs whose classes are copies of one
  tuple partition; see :class:`~repro.core.semantics.ChaseLayout`);
* **values** — one flat working list indexed by *slot*, filled by the
  instance's ``project`` (a ``Relation``'s, or a store view's).  Between
  two relations a cell is its own slot.  Over shared storage
  (``left is right``) a right cell's slot is its left twin's, so a
  repair through either side tag lands where both read it — and only
  there is the order of the unions observable, so only there it is kept
  pair-major and, after a round that merged, every merged class is
  resolved again, in the order of its first union (the reference's
  rule);
* **selections** — lists of positions into the candidate list, narrowed
  per rule atom by atom: equality atoms first, each one comprehension
  reading ``values[left_slot[i] + rank]``, similarity atoms last through
  the plan's value-keyed memo
  (:meth:`~repro.plan.compile.EnforcementPlan.evaluate`).  Cheap
  selective atoms prune before an expensive one runs (the FAQ ordering),
  and a metric is computed once per distinct value pair (the FDB saving);
* **joins** — an equality atom is a join between the two sides' tuples
  restricted to the candidate set, and where a rule's selection holds
  more pairs than the chase has tuples the first narrowing step is one:
  the rule's cheapest ``=`` atom is hash-joined tuple against tuple and
  each hit looked up by bisection in its left tuple's run (the candidate
  set is runs, one per left tuple, each ascending by right tuple), so
  that step costs what it keeps, not what it reads.  Join or filter is a
  cost comparison made from the data, rule by rule and round by round
  (``tuples + hits < |selection|``); small selections and unhashable
  values are filtered as before.  The lookup is a bisection and not a
  ``pair -> position`` table because the table is no faster and costs
  memory the runs do not (+18 % peak RSS on the dense benchmark workload
  when it was tried);
* **firings** — one small-int mask per position, a bit per rule that
  fired at the pair, rather than a set of positions per rule; the
  stability check answers the same way, a mask per position of the
  rules whose LHS holds;
* **round state** — per tuple a round repaired, a mask of the ranks
  it wrote (what the next round's per-rule re-selection reads against
  each rule's LHS ranks,
  :attr:`~repro.core.semantics.ChaseLayout.reads`), a flag per cell for
  the classes it resolved, and ``last_write``, the last round that
  wrote each slot (what the stability check and the diff read; a slot's
  value before is the instance's).  None of it holds an int object per
  cell.

The input instance is only read.  The result
(:class:`~repro.core.semantics.EnforcementResult`) carries what the chase
already knows instead of making callers re-derive it — ``repairs`` (the
cell-wise diff, decoded on first read; ``instance`` is ``D`` + repairs,
built on first access), ``matches`` (a root comparison per pair and RHS
group) and ``first_round_masks`` (per position, the rules that fired at
it in round 1, which reads ``D``: a ``direct`` spec's matches) — and
answers the rest when asked: ``holding_masks`` (per position, the rules
whose LHS holds in ``D'``, which are also every match's provenance) runs
the stability check on first read, and ``stable`` adds the RHS test to
it on its own first read.  Provenance is masks throughout; the per-rule
``first_round`` and ``holding`` are those masks read rule by rule.
Both end-of-chase passes pay only for what the repairs touched: the
check re-selects a fired (rule, pair) only if a later repair wrote one
of its LHS cells, and between two relations ``resolve-merged`` resolves
only the classes a round's unions made *mixed* (a union of classes that
agree resolves to the value they share).  The kernel reads ``stable``
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
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import compress
from operator import ne
from typing import Dict, List, Optional, Sequence

from repro.core.semantics import (
    CellClasses,
    EnforcementResult,
    InstancePair,
    ValueResolver,
    prefer_informative,
)

from .blocking import CandidateSet, Pair


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
    value (over shared storage every merged class, in first-union
    order).  Rounds repeat until no merge happens.
    ``instance`` is only ever read (the paper: "in the matching process
    instance D may not be updated"): the result carries the repairs, and
    builds ``D'`` from them when asked.

    None of the kernel's economies is observable in the result.  Within a
    round the instance is fixed, so the set of firing (rule, pair)s does
    not depend on evaluation order — or on whether an equality atom was
    evaluated as a filter over the pairs or as a hash join over the
    tuples — and the count of cell merges is the drop in the number of
    cell classes whatever order they run in.  A union of an RHS group's
    representative cells stands for one union per RHS pair of the group
    (their classes are copies of one partition of the tuples) and counts
    as that many.
    Rounds after the first are semi-naive per rule: a rule re-examines
    only pairs one of whose tuples the last round's repairs wrote an LHS
    cell of *that rule* at (its verdict reads nothing else, so any other
    pair's cannot change), sits out a round in which no tuple had one
    written, and skips a (rule, pair) that already fired (its RHS cells are merged
    for good, so its unions would all be idempotent).  Between two
    relations a union of two classes whose values agree is not resolved:
    it would write nothing.
    The stability check, run when the result is first asked, re-examines
    only a fired pair one of whose LHS cells a later repair wrote, and the
    pairs still active; the RHS test waits until ``stable`` is read.

    ``candidate_pairs`` bounds the quadratic pair scan; matchers pass the
    output of the plan's blocking backend here, a
    :class:`~repro.plan.blocking.CandidateSet`, which is chased as it is.
    Pairs in any other form are sorted into one on entry (the result does
    not depend on the order they were listed in); every position the
    result names indexes the set chased (``result.merged_cells.pairs``).
    """
    pairs = CandidateSet.of(
        instance.tuple_pairs() if candidate_pairs is None else candidate_pairs
    )
    pair_count = len(pairs.rights)
    stats = plan.stats
    stats.enforcements += 1
    stats.pairs_compared += pair_count
    tracer = plan.tracer
    chase_start = time.perf_counter()

    chase_span = tracer.span(
        "chase", pairs=pair_count, rules=len(plan.rules), max_rounds=max_rounds
    )
    chase_span.__enter__()
    layout = plan.layouts[instance.left is instance.right]
    shared, rules = layout.shared, layout.rules
    union_memo = layout.union_memo
    left_places, right_places = layout.left_places, layout.right_places
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

    # An equality atom is a join between the two sides' tuples, and the
    # candidate set can be probed for its result: one left tuple's pairs
    # are a run, ascending by right tuple, so a pair is found by
    # bisection within it — no ``pair -> position`` table to build and
    # keep.  Both caches below hold for one evaluation of the rules
    # against fixed values (a round's, the stability check's) and are
    # emptied after it.
    left_tuples = cells.left_tuples
    runs = cells.runs
    right_tuples = left_tuples if shared else cells.right_tuples
    tuples = len(left_tuples) + (0 if shared else len(right_tuples))
    #: No selection outgrows the list: a chase with no more pairs than
    #: tuples (every delta chase of the engine) never considers a join.
    dense = pair_count > tuples
    #: atom -> its tuple-level join (see ``match_tuples``), None if a
    #: cell under it is unhashable.
    partners: Dict[tuple, Optional[tuple]] = {}
    #: atom -> the positions of the pairs that satisfy it (ascending by
    #: left tuple; a value's right tuples come last to first).
    satisfying: Dict[tuple, List[int]] = {}

    def match_tuples(atom):
        """Hash-join the two sides' tuples on one equality atom.

        The right tuples are indexed by value — nulls and NaN left out,
        ``=`` is never true on them — as chains through flat lists (a
        list per value would be one more object per tuple for the
        collector to walk): ``latest`` names the last right tuple under a
        value, ``earlier`` the one before each.  Probing with a left
        tuple's value gives its chain's head.  Returns ``(probes, heads,
        earlier)`` — ``probes`` counts the (left, right) tuple hits, which
        is what locating them in the pair list costs — or ``None`` when a
        value cannot be hashed: that atom stays a filter.
        """
        left, right = atom
        theirs = values[right_tuples.start + right :: right_width]
        ours = values[left:right_base:left_width]
        latest: Dict[object, int] = {}
        earlier = []
        try:
            for k, value in enumerate(theirs):
                if value is not None and value == value:
                    earlier.append(latest.get(value, -1))
                    latest[value] = k
                else:
                    earlier.append(-1)
            heads = list(map(latest.get, ours))
            sizes = Counter(theirs)
        except TypeError:
            return None
        probes = sum(
            sizes[value] for value, head in zip(ours, heads) if head is not None
        )
        return probes, heads, earlier

    def join(equalities, size):
        """Serve the cheapest of one rule's equality atoms by a hash join,
        if that reads less than filtering ``size`` positions would:
        ``(positions of the pairs satisfying it, the other atoms)``, else
        ``None``.  Decided from the data — a selection no larger than the
        tuple count is not worth an index, nor is an atom whose join has
        more hits than the selection has pairs."""
        nonlocal probed
        if size <= tuples:
            return None
        for atom in equalities:
            if atom not in partners:
                partners[atom] = match_tuples(atom)
        joinable = [atom for atom in equalities if partners[atom] is not None]
        if not joinable:
            return None
        atom = min(joinable, key=lambda atom: partners[atom][0])
        probes, heads, earlier = partners[atom]
        if tuples + probes >= size:
            return None
        hits = satisfying.get(atom)
        if hits is None:
            probed += probes
            stats.metric_evaluations += probes
            hits = satisfying[atom] = []
            for position, head in enumerate(heads):
                if head is None:
                    continue
                # A left tuple's pairs are its run, ascending by right
                # tuple; a pair listed twice is two neighbours.
                start, end = runs[position], runs[position + 1]
                while head >= 0:
                    partner = right_tuples[head]
                    at = bisect_left(right_slots, partner, start, end)
                    while at < end and right_slots[at] == partner:
                        hits.append(everything[at])
                        at += 1
                    head = earlier[head]
        return hits, [other for other in equalities if other != atom]

    #: Every position, listed once: each selection is filtered from it
    #: (or from a join's hits, taken from it), so they all share its ints.
    everything = list(range(pair_count))
    applications = 0
    rounds = 0
    #: The count of tuples the last round repaired (only their pairs can
    #: match anew); round 1 lists every pair as active and never reads it.
    repaired_tuples = len(values)
    #: The first slot of every tuple the last round repaired -> a bit per
    #: rank it wrote there, and every such bit as the rules' LHS masks
    #: (``ChaseLayout.reads``) count them: a left rank ``r`` as bit ``r``,
    #: a right one as bit ``left_width + r`` (over shared storage a slot
    #: is both, its right tuple's slots being its left twin's).
    written: Dict[int, int] = {}
    written_get = written.get
    written_any = 0
    left_bits = 1 | 1 << left_width if shared else 1
    #: Per active position, what ``written`` says of its pair, as a mask
    #: of the rules' kind; listed once per round, if a rule scans.
    active_written: Optional[List[int]] = None
    reads = layout.reads
    #: Those pairs' positions, listed only if some rule has to scan them.
    active: Optional[Sequence[int]] = everything
    #: Tuple hits the joins have looked up so far.
    probed = 0
    #: Per position, a bit per rule that fired at it (``1 << index``).
    fired = [0] * pair_count
    #: Per rule, ``(round, positions)`` for every round it fired in.
    fired_in: List[List[tuple]] = [[] for _ in rules]
    #: Per position, a bit per rule that fired at it in round 1.
    first_round = fired
    #: Per slot, the last round whose resolution wrote it (0: never; the
    #: value it had before is the instance's).
    last_write = array("i", [0]) * len(values)
    merged_this_round = False
    # Over shared storage one slot sits in two classes, so resolving one
    # can rewrite a slot of another and the order classes resolve in is
    # observable.  After a round that merged, every merged class is
    # resolved again in the order of its first cell's first union
    # (``first``: root -> that position, counted by ``involved``) — the
    # paper's chase, as the reference runs it.
    first: Dict[int, int] = {}
    involved = 0

    def list_active():
        nonlocal active
        active = [
            i for i in everything if left_slots[i] in written or right_slots[i] in written
        ]
        return active

    while rounds < max_rounds:
        rounds += 1
        round_span = tracer.span("chase-round", round=rounds)
        round_span.__enter__()
        firing = []
        joins = scanned = 0
        probed_before = probed
        for index, ((equalities, similarities, _), history) in enumerate(
            zip(rules, fired_in)
        ):
            bit = 1 << index
            # Semi-naive per rule: only a pair one of whose tuples the last
            # round wrote an LHS cell of this rule at can change its
            # verdict, and with no such tuple the rule sits the round out.
            lhs = reads[index]
            if rounds > 1 and not written_any & lhs:
                continue
            # What a scan would read — the active pairs: their count once
            # they are listed, until then a repaired tuple's mean number
            # of pairs for each tuple repaired.
            joined = dense and join(
                equalities,
                len(active)
                if active is not None
                else min(pair_count, repaired_tuples * 2 * pair_count // tuples),
            )
            if not joined:
                selection = active if active is not None else list_active()
                scanned += len(selection)
                if rounds > 1:
                    if active_written is None:
                        active_written = [
                            written_get(left_slots[i], 0)
                            | written_get(right_slots[i], 0) << left_width
                            for i in selection
                        ]
                    selection = list(
                        compress(selection, map(lhs.__and__, active_written))
                    )
                    if history:
                        selection = [i for i in selection if not fired[i] & bit]
            else:
                joins += 1
                selection, equalities = joined
                if rounds > 1:
                    selection = [
                        i
                        for i in selection
                        if (
                            written_get(left_slots[i], 0)
                            | written_get(right_slots[i], 0) << left_width
                        )
                        & lhs
                        and not fired[i] & bit
                    ]
            selection = select(selection, equalities, similarities)
            if selection:
                for i in selection:
                    fired[i] |= bit
                history.append((rounds, selection))
                firing.append((selection, bit))
        if rounds == 1:
            first_round = fired.copy()
        round_span.set("joined", joins)
        round_span.set("join_probes", probed - probed_before)
        round_span.set("scanned", scanned)
        partners.clear()
        satisfying.clear()
        # One union per (pair, RHS group): OR the firing rules into one
        # mask per position, then union each group's representative cells
        # once (``ChaseLayout.unions``).  Over shared storage one tuple's
        # slot can sit in two classes (tagged left in one, right in the
        # other), and then the order classes are resolved in is
        # observable.  It follows the order of the unions: keep that
        # pair-major, the groups in the order the rules declare them
        # within a pair.  Between two relations classes never share
        # storage and no order is observable.
        masks: Dict[int, int] = {}
        for selection, bit in firing:
            if not masks:
                masks = dict.fromkeys(selection, bit)
                continue
            get = masks.get
            for i in selection:
                masks[i] = get(i, 0) | bit
        positions = sorted(masks.items()) if shared else masks.items()
        #: One member of every class a union made (as raw ints: a root
        #: read from ``root`` is a fresh int object).
        touched = array("i")
        #: Root -> a bit per lane of its group whose class may disagree.
        #: Between two relations every class leaves a round's resolution
        #: carrying one value (all ``==``), so a union of two such classes
        #: whose cells agree lane by lane is still uniform; over shared
        #: storage one slot can sit in two classes and every union counts
        #: as mixed.
        mixed: Dict[int, int] = {}
        mixed_get = mixed.get
        merges = attempts = 0
        for i, mask in positions:
            unions = union_memo.get(mask) or layout.unions(mask)
            attempts += len(unions)
            left_cell, right_cell = left_cells[i], right_cells[i]
            for left, right, width, lanes in unions:
                # Union by size over the flat root / size / next lists.
                a = root[left_cell + left]
                b = root[right_cell + right]
                if a != b:
                    if shared:
                        bits = 1
                        for fresh in (a, b):
                            if fresh not in first:
                                first[fresh] = involved
                                involved += 1
                    else:
                        bits = mixed_get(a, 0) | mixed_get(b, 0)
                        if not bits & 1 and values[a] != values[b]:
                            bits |= 1
                        for bit, left_offset, right_offset in lanes:
                            if not bits & bit and values[
                                a + (left_offset if a < right_base else right_offset)
                            ] != values[
                                b + (left_offset if b < right_base else right_offset)
                            ]:
                                bits |= bit
                    size_a, size_b = size[a], size[b]
                    if size_a < size_b:
                        a, b = b, a
                    if shared:
                        first[a] = min(first[a], first.pop(b))
                    size[a] = size_a + size_b
                    member = b
                    while True:
                        root[member] = a
                        member = ring[member]
                        if member == b:
                            break
                    ring[a], ring[b] = ring[b], ring[a]
                    if bits:
                        mixed[a] = bits
                    touched.append(a)
                    merges += width
        merged_this_round = bool(touched)
        applications += merges
        round_span.set("union_attempts", attempts)
        round_span.set("merges", merges)
        # Re-resolve every class that gained a member this round and may
        # disagree — over shared storage, every merged class (``touched``
        # holds one member per successful union; none means nothing was
        # repaired, and every active pair has just been examined against
        # the final instance).  A class whose
        # members all carry ``==`` values — one whose membership did not
        # change, or a union of such classes that agree — resolves to one
        # of them (the ``ValueResolver`` contract), which writes nothing.
        active = None if merged_this_round else []
        if not merged_this_round:
            round_span.__exit__(None, None, None)
            break
        written.clear()
        written_any = 0
        active_written = None
        with tracer.span("resolve-merged") as resolve_span:
            #: A flag per cell: its class was resolved this round.
            seen = bytearray(len(root))
            repaired = uniform = resolved_classes = 0
            # ``first`` holds the root of every merged class.
            anchors = sorted(first, key=first.__getitem__) if shared else touched
            for anchor in anchors:
                anchor = root[anchor]
                if seen[anchor]:
                    continue
                seen[anchor] = 1
                lanes = (
                    left_places[anchor % left_width]
                    if anchor < right_base
                    else right_places[(anchor - right_base) % right_width]
                )[2]
                bits = 1 if shared else mixed_get(anchor, 0)
                if not bits:
                    uniform += len(lanes)
                    continue
                # The resolver sees the members in (side, tid, attribute)
                # order — int order — not in the order of the unions; a
                # lane's members are the representative's, shifted.
                members = sorted(cells.ring(anchor))
                split = bisect_left(members, right_base)
                for lane, (left_offset, right_offset) in enumerate(lanes):
                    if not bits >> lane & 1:
                        uniform += 1
                        continue
                    resolved_classes += 1
                    if shared:
                        slots = [member % right_base for member in members]
                    elif left_offset or right_offset:
                        slots = [
                            member + left_offset for member in members[:split]
                        ] + [member + right_offset for member in members[split:]]
                    else:
                        slots = members
                    resolved = resolver([values[slot] for slot in slots])
                    for slot in slots:
                        if values[slot] != resolved:
                            last_write[slot] = rounds
                            values[slot] = resolved
                            repaired += 1
                            # The first slot of the tuple written to: only
                            # its pairs can behave differently next round,
                            # and only under a rule reading ``rank``.
                            if slot < right_base:
                                rank = slot % left_width
                                written_any |= left_bits << rank
                            else:
                                rank = (slot - right_base) % right_width
                                written_any |= 1 << left_width + rank
                            tuple_slot = slot - rank
                            written[tuple_slot] = written_get(tuple_slot, 0) | 1 << rank
            repaired_tuples = len(written)
            resolve_span.set("classes", resolved_classes)
            resolve_span.set("uniform", uniform)
            resolve_span.set("repairs", repaired)
        round_span.__exit__(None, None, None)

    def check():
        """Per position, the rules whose LHS holds in ``D'``, and the RHS
        test that makes it stability.

        Only a (rule, pair) that fired, or a pair still active — dirtied
        by the last permitted round's repairs, or never examined because
        no round was permitted — can match now: any other was last
        evaluated against the values its tuples still carry, and did not
        match.  A fired pair is *fresh* when no repair wrote one of the
        rule's LHS cells of its two tuples in or after the round it fired
        in: its LHS reads what it read then, and holds unevaluated.  Only
        the stale and the active pairs are selected again.

        Returns ``(masks, test)``: per position, a bit per rule whose LHS
        holds there.  ``test(holding)``, given those masks read per rule,
        is ``(D', D') ⊨ Σ``:
        every holding pair's RHS cells carry equal values — values, not
        classes, so merged cells that carry a value unequal to itself
        (NaN) are not identified.  The span nests under whoever asked;
        the test, run only if ``stable`` is read, records on it later.
        """

        def last_lhs_write(tuples, ranks):
            """``(writes, offset)``: ``writes[slot + offset]`` is the last
            round a repair wrote one of ``ranks`` of the tuple whose first
            slot is ``slot`` (0: none did).  Over shared storage a right
            tuple is its left twin's storage."""
            if len(ranks) == 1:
                return last_write, next(iter(ranks))
            start, stop, width = tuples.start, tuples.stop, tuples.step
            # Spanning the side's slots only: a slot is read ``start`` lower.
            merged = array("i", [0]) * (stop - start)
            merged[::width] = array("i", map(
                max, *(last_write[start + rank:stop:width] for rank in ranks)
            ))
            return merged, -start

        masks = [0] * pair_count
        with tracer.span("stability-check") as span:
            joins = fresh_pairs = reevaluated = 0
            listed = active if active is not None else list_active()
            for index, ((equalities, similarities, _), history) in enumerate(
                zip(rules, fired_in)
            ):
                bit = 1 << index
                left_ranks = {left for left, _ in equalities}.union(
                    left for _, left, _ in similarities
                )
                right_ranks = {right for _, right in equalities}.union(
                    right for _, _, right in similarities
                )
                if history:
                    lefts, left_at = last_lhs_write(left_tuples, left_ranks)
                    rights, right_at = last_lhs_write(right_tuples, right_ranks)
                stale: List[int] = []
                for fired_round, positions in history:
                    for i in positions:
                        if (
                            lefts[left_slots[i] + left_at] < fired_round
                            and rights[right_slots[i] + right_at] < fired_round
                        ):
                            masks[i] |= bit
                            fresh_pairs += 1
                        else:
                            stale.append(i)
                selection = stale + [i for i in listed if not fired[i] & bit]
                joined = dense and join(equalities, len(selection))
                if joined:
                    joins += 1
                    hits, equalities = joined
                    selection = list(set(selection).intersection(hits))
                reevaluated += len(selection)
                for i in select(selection, equalities, similarities):
                    masks[i] |= bit
            span.set("joined", joins)
            span.set("fresh", fresh_pairs)
            span.set("reevaluated", reevaluated)
            partners.clear()
            satisfying.clear()

        def test(holding):
            tested = 0
            for rule, (_, _, rhs), selection in zip(plan.rules, rules, holding):
                if not selection:
                    continue
                tested += len(selection)
                lefts = [left_slots[i] for i in selection]
                rights = [right_slots[i] for i in selection]
                for left, right in rhs:
                    if any(map(
                        ne,
                        [values[slot + left] for slot in lefts],
                        [values[slot + right] for slot in rights],
                    )):
                        span.set("rhs_tested", tested)
                        span.set("unstable_rule", rule.name)
                        return False
            span.set("rhs_tested", tested)
            return True

        return masks, test

    def diff():
        """``repairs``: every written slot whose value moved from the
        instance's, decoded."""
        repairs = {}
        relations = (instance.left, instance.right)
        for slot in compress(range(len(last_write)), last_write):
            side, tid, attribute = cell = cells.decode(slot)
            value = values[slot]
            if value != relations[side][tid][attribute]:
                repairs[cell] = value
                if shared:
                    repairs[cells.decode(slot + right_base)] = value
        return repairs

    result = EnforcementResult(
        instance, rounds, cells, applications, len(rules), first_round, diff, check
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
