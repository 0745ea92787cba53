"""The enforcement chase over a compiled plan: one :class:`ChaseState`.

A chase is the paper's enforcement (Section 2.1): from ``D`` it builds an
extension ``D'`` with ``(D, D') ⊨ Σ`` by merging cells into classes and
resolving every merged class to one value.  :class:`ChaseState` is that
computation and its result in one object.  Built over ``(plan, instance,
candidate set, resolver)``, it lays the chase out in flat arrays and marks
every position *fresh*; :meth:`ChaseState.run` does the rounds.  The
tuples the pairs mention get positions in sorted-tid order, the
attributes their ranks in the plan's :class:`ChaseLayout`, and the cells
are laid out by column: a cell is the int ``columns[side][rank] +
position``, every column one block of ints, in four regions — the left
RHS-group representatives' columns, the right ones', then each side's
other columns (:attr:`ChaseLayout.blocks`).  So the representatives'
cells are the ints ``[0, classes)``, and the state holds:

* **classes** — ``root`` / ``size`` / ``next``, three ``array('i')``
  over the representative cells only: a class *is* the int of its
  representative cell (:attr:`ChaseLayout.classes`); a union relabels
  the smaller class and joins the two rings, once per (pair, RHS group);
* **values** — one working list, a slot per cell, projected from the
  instance column by column;
* **firings** — per position a rule mask (:func:`rule_masks`), per rule
  the ``(round, positions)`` of every round it fired in;
* **writes** — per slot the last round that wrote it, and per side and
  tuple the ranks the last round wrote: its pairs are *dirty* for every
  rule whose LHS reads one of them (:attr:`ChaseLayout.reads`).

Positions are a ``range`` and every selection of them the state keeps
or lists an ``array('i')`` (a per-position mask a :func:`rule_masks`
array), and so is what a round builds and drops — its write marks per
tuple, its disagreeing lanes per class: nothing the state keeps or a
round builds has an int object per pair or per cell.

Each round every rule examines its *pending* positions — the fresh ones
and the dirty ones it has not fired on — and narrows them atom by atom:
equality atoms first (as a hash join over the tuples where that reads less
than a scan), similarity atoms last through the plan's value-keyed memo.
Round 1 is the case with no dirty position, every later round the case
with no fresh one.  :meth:`~repro.plan.compile.EnforcementPlan.enforce` is
the one entry point; the streaming engine reads matches only, so its delta
chases never pay for the stability check.
"""

from __future__ import annotations

import sys
import time
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import cached_property
from itertools import accumulate, compress, repeat
from operator import ne, or_
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.core.schema import LEFT, RIGHT
from repro.core.semantics import InstancePair, ValueResolver
from repro.relations.relation import is_tid

from .blocking import CandidateSet, column_like

#: A cell of an instance pair: (side, tuple id, attribute name).
Cell = Tuple[int, int, str]


#: Where a rank's cells live (:attr:`ChaseLayout.left_places`): the
#: cell's lane (the index of its RHS pair in its group) and the group's
#: ``(left rank, right rank)`` pairs, the representative first.  A
#: read-only rank, in no RHS pair, has none: its cells are in no class.
Place = Tuple[int, Tuple[Tuple[int, int], ...]]


class ChaseLayout(NamedTuple):
    """The plan's half of a chase's encoding, built once per plan
    (:attr:`~repro.plan.compile.EnforcementPlan.layout`): per side the
    chase attributes in sorted-name order and their ranks, and every
    rule as rank offsets from a pair's two tuples —
    ``(equalities, similarities, rhs)`` in selection order, an atom as
    ``(left rank, right rank)``, a similarity led by its predicate.  A
    chase adds only what its pairs decide (:class:`ChaseState`).

    An MD identifies attribute *lists*, so the RHS pairs one set of rules
    writes are identified by the same firings: when none of their
    attributes sits in another RHS pair, their cell classes are copies of
    one partition of the tuples.  Such pairs form an **RHS group**
    (``groups``, each a tuple of rank pairs, its representative first),
    and the chase unions only the representative's cells; every other
    RHS pair is a group of one.  ``classes`` is per side the ranks whose
    cells a chase keeps classes for, the groups' representatives
    (ascending; a follower or read-only cell is never unioned, so it is
    alone in its class).  ``writes`` is per rule the
    bitmask of the groups it writes, ``reads`` per rule the bitmask of
    the cells its LHS reads (bit ``r`` for left rank ``r``, bit
    ``len(left_names) + r`` for right rank ``r``), ``left_places`` /
    ``right_places`` per rank where its cells live (:data:`Place`, or
    ``None``), and :meth:`unions` the group unions a set of firing rules
    makes at one pair.

    A chase lays its cells out by column, one block of ints per column
    (:class:`ChaseState`): ``regions`` are the four runs of columns in
    that order — per side the representatives' names, then per side the
    other ranks' — and ``blocks`` every column as ``(side, rank)``."""

    left_names: Tuple[str, ...]
    right_names: Tuple[str, ...]
    left_rank: Dict[str, int]
    right_rank: Dict[str, int]
    rules: Tuple[tuple, ...]
    groups: Tuple[Tuple[Tuple[int, int], ...], ...]
    writes: Tuple[int, ...]
    reads: Tuple[int, ...]
    left_places: Tuple[Optional[Place], ...]
    right_places: Tuple[Optional[Place], ...]
    #: Per side, the representative ranks, ascending.
    classes: Tuple[Tuple[int, ...], Tuple[int, ...]]
    #: ``(side, attribute names)`` per region of columns, in cell order.
    regions: Tuple[Tuple[int, Tuple[str, ...]], ...]
    #: ``(side, rank)`` per column, in cell order.
    blocks: Tuple[Tuple[int, int], ...]
    #: The most RHS pairs in one group: the bits of a class's lanes.
    widest: int
    #: rule bitmask -> :meth:`unions`' answer, filled as masks occur.
    union_memo: Dict[int, tuple]
    #: attribute pairs -> :meth:`homes`' answer, filled as they are read.
    home_memo: Dict[tuple, Optional[Tuple[Tuple[int, int], ...]]]

    @classmethod
    def of(cls, attributes, rules: Iterable[tuple]) -> "ChaseLayout":
        """Lower ``rules`` — ``(equalities, similarities, rhs)`` over the
        per-side names in ``attributes`` — to rank offsets, and group
        their RHS pairs."""
        left_names, right_names = tuple(sorted(attributes[0])), tuple(sorted(attributes[1]))
        left_rank = {name: rank for rank, name in enumerate(left_names)}
        right_rank = {name: rank for rank, name in enumerate(right_names)}
        lowered = tuple(
            (
                [(left_rank[a], right_rank[b]) for a, b in equalities],
                [(p, left_rank[p.left], right_rank[p.right]) for p in similarities],
                [(left_rank[a], right_rank[b]) for a, b in rhs],
            )
            for equalities, similarities, rhs in rules
        )
        # The distinct RHS pairs in first-occurrence order, with the
        # bitmask of the rules writing each.
        writers: Dict[Tuple[int, int], int] = {}
        for position, (_, _, rhs) in enumerate(lowered):
            for pair in rhs:
                writers[pair] = writers.get(pair, 0) | 1 << position
        lefts = Counter(left for left, _ in writers)
        rights = Counter(right for _, right in writers)
        grouped: Dict[object, List[Tuple[int, int]]] = {}
        for pair, mask in writers.items():
            private = lefts[pair[0]] == 1 and rights[pair[1]] == 1
            grouped.setdefault(mask if private else pair, []).append(pair)
        groups = tuple(tuple(pairs) for pairs in grouped.values())
        group_of = {pair: g for g, pairs in enumerate(groups) for pair in pairs}
        writes = tuple(
            sum({1 << group_of[pair] for pair in rhs}) for _, _, rhs in lowered
        )
        # An atom ends in its (left rank, right rank), similarity or not.
        reads = tuple(
            sum({1 << atom[-2] for atom in (*equalities, *similarities)})
            | sum({1 << atom[-1] for atom in (*equalities, *similarities)})
            << len(left_names)
            for equalities, similarities, _ in lowered
        )
        classes = tuple(
            tuple(sorted({pairs[0][side] for pairs in groups})) for side in (0, 1)
        )
        left_places: List[Optional[Place]] = [None] * len(left_names)
        right_places: List[Optional[Place]] = [None] * len(right_names)
        for pairs in groups:
            for lane, (left, right) in enumerate(pairs):
                left_places[left] = right_places[right] = (lane, pairs)
        names = (left_names, right_names)
        others = tuple(
            tuple(rank for rank in range(len(names[side])) if rank not in classes[side])
            for side in (0, 1)
        )
        columns = tuple(zip((0, 1, 0, 1), classes + others))
        return cls(
            left_names, right_names, left_rank, right_rank, lowered, groups,
            writes, reads, tuple(left_places), tuple(right_places), classes,
            tuple((side, tuple(names[side][rank] for rank in ranks)) for side, ranks in columns),
            tuple((side, rank) for side, ranks in columns for rank in ranks),
            max(map(len, groups), default=1), {}, {},
        )

    def unions(self, mask: int) -> Tuple[Tuple[int, int, int, tuple], ...]:
        """The unions the rules in ``mask`` (bit ``k`` = rule ``k``) make
        at one pair: a ``(left rank, right rank, size, lanes)`` per group,
        the representative's ranks, the group's size and, per further RHS
        pair, ``(its bit, left rank, right rank)``.  In the order the
        rules and their RHS name the groups.  Memoized per mask."""
        found = self.union_memo.get(mask)
        if found is not None:
            return found
        group_of = {pair: g for g, pairs in enumerate(self.groups) for pair in pairs}
        seen: Dict[int, None] = {}
        for position, (_, _, rhs) in enumerate(self.rules):
            if mask >> position & 1:
                for pair in rhs:
                    seen[group_of[pair]] = None
        unions = []
        for g in seen:
            (left0, right0), *others = self.groups[g]
            lanes = tuple(
                (1 << lane, left, right) for lane, (left, right) in enumerate(others, 1)
            )
            unions.append((left0, right0, 1 + len(others), lanes))
        found = self.union_memo[mask] = tuple(unions)
        return found

    def homes(
        self, attribute_pairs: Iterable[Tuple[str, str]]
    ) -> Optional[Tuple[Tuple[int, int], ...]]:
        """The ``(left rank, right rank)`` representatives a pair is read
        at to tell whether its cells of every given attribute pair were
        identified: one representative pair per RHS group the attribute
        pairs fall in.  ``None`` when no pair can be — an attribute
        outside the encoding, a read-only cell, or two cells of different
        lanes, which never share a class.  Memoized per attribute pair
        sequence."""
        key = tuple(attribute_pairs)
        try:
            return self.home_memo[key]
        except KeyError:
            pass
        homes: Optional[Dict[Tuple[int, int], None]] = {}
        for left_attr, right_attr in key:
            left_rank = self.left_rank.get(left_attr)
            right_rank = self.right_rank.get(right_attr)
            if left_rank is None or right_rank is None:
                homes = None
                break
            left_place = self.left_places[left_rank]
            right_place = self.right_places[right_rank]
            if left_place is None or right_place is None or left_place[0] != right_place[0]:
                homes = None
                break
            homes[left_place[1][0][0], right_place[1][0][1]] = None
        found = self.home_memo[key] = None if homes is None else tuple(homes)
        return found


#: Per bit count up to 64, a zero of the narrowest unsigned array
#: typecode with that many bits.
_MASK_ZEROS = tuple(
    next(zero for zero in map(array, "BHILQ", repeat([0])) if zero.itemsize * 8 >= bits)
    for bits in range(65)
)


def rule_masks(rule_count: int, count: int) -> Sequence[int]:
    """``count`` zero rule masks (bit ``k`` for rule ``k``), held in an
    array of the smallest unsigned typecode ``rule_count`` bits fit — a
    byte a position for up to 8 rules — and in a list beyond 64 rules.
    The chase keeps every ``rule_count``-bit value this way: write marks
    over ranks, round numbers."""
    if rule_count < len(_MASK_ZEROS):
        return _MASK_ZEROS[rule_count] * count
    return [0] * count


_ZERO, _ONE = array("i", [0]), array("i", [1])
_BYTE = array("B", [0])
_BYTES = bytes(range(256))
#: Where each byte of an ``array('i')`` item sits, least significant first.
_BYTE_ORDER = range(4) if sys.byteorder == "little" else range(3, -1, -1)


def _build_identity(count: int) -> array:
    """``array('i', range(count))``, assembled plane by plane: byte ``k``
    of item ``v`` is ``v >> 8k & 255``, constant over runs of ``256**k``
    items and cycling through 256 values.  Only bytes are copied, so it
    beats converting one int per cell (CPython 3.11, 2 vCPU: 2.1 against
    17.5 ms at a batch chase's 286 380 cells)."""
    raw = bytearray(4 * count)
    for shift, offset in enumerate(_BYTE_ORDER):
        run = 256 ** shift
        runs = -(-count // run)
        if runs <= 1:
            break  # every item is below ``run``: this plane and the rest are 0
        period = (
            _BYTES
            if run == 1
            else b"".join(bytes([byte]) * run for byte in range(min(runs, 256)))
        )
        raw[offset::4] = (period * -(-runs // 256))[:count]
    # Copied into an array of exactly ``count`` items (``frombytes``
    # would leave room to grow).
    identity = _ZERO * count
    with memoryview(identity).cast("B") as view:
        view[:] = raw
    return identity


#: The first 16 384 cells' identity, built at import (64 KB).  The
#: streaming engine's delta chases fit in it (``stream_durable``: median
#: 84 cells, at most 1 608, over 4 669 chases) and copy theirs out of it:
#: one slice, where a build per chase cost ~2 % of ``stream_durable``'s
#: ``records_per_s``.  A batch chase builds its own.
_IDENTITY = _build_identity(1 << 14)


def _identity(count: int) -> array:
    """``array('i', range(count))``, a fresh array of ``count`` items."""
    if count <= len(_IDENTITY):
        return _IDENTITY[:count]
    return _build_identity(count)


class ChaseState:
    """One enforcement chase of ``instance`` over a candidate set — the
    rounds, the cell classes and what they leave.

    Positions index the candidate set chased (:attr:`pairs`: each left
    tuple's ascending run of right tids).  A position is *fresh* until a
    round has examined it — every one until the first round, none after —
    and *dirty* for a rule when one of its two tuples had one of the
    rule's LHS ranks written by the last round.  A rule's verdict on a
    pair reads nothing else, so every other pair keeps its last verdict,
    and a pair the rule fired on stays merged for good.  Within a round
    the values are fixed, so which (rule, pair)s fire depends neither on
    evaluation order nor on join or scan, and the merges counted are the
    drop in the number of classes (a union of an RHS group's
    representative cells counts one per RHS pair of the group).  A union
    of classes whose values agree is not resolved: it would write nothing.

    The cells are laid out by column (:attr:`ChaseLayout.blocks`): the
    cell of a side's tuple at ``position`` and rank ``rank`` is
    ``left_columns[rank] + position`` (``right_columns`` on the right),
    the representatives' columns first.  The classes are kept over those
    cells only, ``[0, classes)``, and a class is its representative
    cell: a cell of another pair in a group, a *follower*, or of an
    attribute no rule writes is never unioned nor walked, so it has no
    entry, and the tuple-facing reads (:meth:`same`, :meth:`members`,
    :meth:`classes`) map a cell to its representative's class.  ``root``
    is kept flat (a union relabels the smaller class), so a class test
    is one array comparison.

    The results are read off the state's own arrays, each on first read:
    ``matching`` / ``matches`` / ``identified`` (a root comparison per
    pair and RHS group), ``first_round`` / ``first_round_masks`` (the
    round-1 firings, on ``D``: a ``direct`` spec's matches),
    ``holding_masks`` / ``holding`` (the stability check), ``stable``
    (its RHS test), ``repairs`` (the cell-wise diff) and ``instance``
    (``D'``).  ``D`` is only read, and must not change while the state is
    read.  Equality is identity.

    Attributes
    ----------
    original:
        The instance ``D`` chased.
    pairs:
        The :class:`~repro.plan.blocking.CandidateSet` chased.
    rounds:
        Rounds run.
    applications:
        Successful merges, one per RHS pair a union identified.
    rounds_exhausted:
        True when ``max_rounds`` ran out before a round merged nothing
        (or no round ran) *and* the result is not stable: a partial
        extension, not a fixpoint.
    """

    def __init__(
        self, plan, instance: InstancePair, pairs: CandidateSet, resolver: ValueResolver
    ) -> None:
        plan.stats.enforcements += 1
        plan.stats.pairs_compared += len(pairs)
        layout = self.layout = plan.layout
        self.plan, self.original, self.pairs, self.resolver = plan, instance, pairs, resolver
        lefts, rights = pairs.lefts, pairs.rights
        self.left_width = len(layout.left_names)
        #: Per side, the tids in ascending order: columns as the candidate
        #: set's are (``left_tids`` is its ``lefts``).
        self.left_tids = lefts
        self.right_tids = column_like(rights, sorted(set(rights)))
        tids = (lefts, self.right_tids)
        #: Per pair, the positions of its left and of its right tuple
        #: (``lefts`` are the left tuples, in order).
        self.left_positions = array("i", list(pairs.per_pair(range(len(lefts)))))
        right_at = dict(zip(self.right_tids, range(len(rights))))
        self.right_positions = array("i", list(map(right_at.__getitem__, rights)))
        del right_at
        self.tuples = len(lefts) + len(self.right_tids)
        #: Per column (``layout.blocks``), its first cell, then the cell
        #: count; per side and rank, its column's first cell.
        self.starts = list(accumulate((len(tids[side]) for side, _ in layout.blocks), initial=0))
        columns = ([0] * self.left_width, [0] * len(layout.right_names))
        for (side, rank), start in zip(layout.blocks, self.starts):
            columns[side][rank] = start
        self.left_columns, self.right_columns = columns
        # Each side's tids are mapped to positions once, for both of its
        # regions.  The constructor peaks as the values take the last
        # region, so the position lists go first, and that region's list
        # goes before anything else is allocated.
        left, right = instance.left, instance.right
        (_, left_classes), (_, right_classes), (_, left_others), (_, right_others) = (
            layout.regions
        )
        left_at, right_at = left.positions(lefts), right.positions(self.right_tids)
        values: List[object] = left.gather(left_at, left_classes)
        values += right.gather(right_at, right_classes)
        values += left.gather(left_at, left_others)
        others = right.gather(right_at, right_others)
        del left_at, right_at
        values += others
        del others
        #: The working values, one per slot.
        self.values = values
        #: Per left tuple (``left_tids`` order), where its run of pairs
        #: starts (``runs[p]`` to ``runs[p + 1]``, ascending by right
        #: tuple).
        self.runs = pairs.starts
        #: The representative cells: the left ones, then from
        #: ``right_classes`` on the right ones.
        representatives = len(layout.classes[0]), len(layout.classes[1])
        self.right_classes = self.starts[representatives[0]]
        classes = self.starts[sum(representatives)]
        #: The classes: per class its root, per root its class's size, and
        #: per class the next member of its class's circular ring.
        self.root = _identity(classes)
        self.size, self.next = _ONE * classes, self.root[:]
        #: No selection outgrows the pairs: a chase with no more pairs than
        #: tuples (every delta chase of the engine) never considers a join.
        self.dense = len(pairs) > self.tuples
        #: Every position.
        self.everything = range(len(pairs))
        #: The positions no round has examined yet.
        self.fresh: Sequence[int] = self.everything
        #: Per side and tuple, a bit per rank the last round wrote, by
        #: position (:func:`rule_masks` arrays; ``None`` while no round
        #: since the last listing wrote); ``written_tuples`` counts the
        #: tuples with one, and ``written_any`` ORs them as the rules'
        #: ``reads`` count a rank (left ``r``: bit ``r``; right:
        #: ``left_width + r``).
        self.written: Optional[Tuple[Sequence[int], Sequence[int]]] = None
        self.written_tuples = self.written_any = 0
        #: The dirty pairs listed, with their write masks, once per round.
        self._dirty: Optional[Tuple[array, Sequence[int]]] = None
        #: Per position, a bit per rule that fired at it.
        self.fired = rule_masks(len(layout.rules), len(pairs))
        #: Per rule, ``(round, positions)`` for every round it fired in.
        self.fired_in: List[List[Tuple[int, Sequence[int]]]] = [[] for _ in layout.rules]
        #: Per slot, the last round that wrote it (0: never): a byte a
        #: slot, widened by :meth:`run` for a budget past 255 rounds.
        self.last_write = _BYTE * len(values)
        #: Per equality atom, its tuple-level join and the positions
        #: satisfying it, for one evaluation against fixed values.
        self._partners: Dict[tuple, Optional[tuple]] = {}
        self._satisfying: Dict[tuple, List[int]] = {}
        #: Tuple hits the joins looked up; rounds run; cell merges.
        self.probed = self.rounds = self.applications = 0
        #: ``converged``: a round merged nothing, so no later one can.
        self.converged = self.rounds_exhausted = False

    def __repr__(self) -> str:
        return (
            f"ChaseState({len(self.everything)} pairs, {self.rounds} rounds, "
            f"{self.applications} applications)"
        )

    # -- the rounds --------------------------------------------------------

    def run(self, max_rounds: int = 100) -> "ChaseState":
        """Run rounds until one merges nothing or ``max_rounds`` have run,
        then tell a cut-off (:attr:`rounds_exhausted`).  Returns the state.
        A state runs once: its counters go into ``plan.stats`` here."""
        plan = self.plan
        tracer, stats = plan.tracer, plan.stats
        started = time.perf_counter()
        if max_rounds >> 8 * self.last_write.itemsize:
            # A round number in the bits the budget needs (a budget past
            # 2**64 rounds runs out of time first).
            self.last_write = rule_masks(min(max_rounds.bit_length(), 64), len(self.values))
        with tracer.span(
            "chase", pairs=len(self.everything), rules=len(plan.rules),
            max_rounds=max_rounds,
        ) as span:
            while not self.converged and self.rounds < max_rounds:
                self.rounds += 1
                with tracer.span("chase-round", round=self.rounds) as round_span:
                    touched, mixed = self._unite(self._fire(round_span), round_span)
                    if touched:
                        with tracer.span("resolve-merged") as resolve_span:
                            self._resolve(touched, mixed, resolve_span)
                    else:
                        self.converged = True
                    del touched, mixed  # the round's: not kept through the next
            stats.chase_rounds += self.rounds
            stats.rule_applications += self.applications
            span.set("rounds", self.rounds)
            span.set("applications", self.applications)
            # Cut off: the last permitted round still merged (or none ran)
            # and the result is not stable.  Further rounds after a stable
            # one could only merge cells that already agree, so only here
            # does the chase read its own stability.
            if not self.converged:
                span.set("stable", self.stable)
                if not self.stable:
                    self.rounds_exhausted = True
                    stats.rounds_exhausted += 1
                    span.set("rounds_exhausted", True)
                    span.set("rule_set", [rule.name for rule in plan.rules])
        plan.metrics.observe("chase.rounds", self.rounds)
        plan.metrics.observe("chase.seconds", time.perf_counter() - started)
        return self

    def _fire(self, span) -> List[Tuple[Sequence[int], int]]:
        """Every rule's firing positions against the round's start values,
        with its bit; then every position counts as examined."""
        fired, fired_in, reads = self.fired, self.fired_in, self.layout.reads
        fresh, written_any, dense, rounds = self.fresh, self.written_any, self.dense, self.rounds
        firing = []
        joins = scanned = 0
        probed = self.probed
        for index, (equalities, similarities, _) in enumerate(self.layout.rules):
            if not fresh and not written_any & reads[index]:
                continue  # nothing the rule reads was written: it sits out
            # Pending: the fresh positions and the dirty ones the rule has
            # not fired on.  Positions are fresh all together (every one
            # before the first round, none after), so while any is, every
            # pair is fresh and none is dirty.
            joined = dense and self._join(equalities, self._pending_size())
            if joined:
                joins += 1
                hits, equalities = joined
                selection = hits if fresh else self._dirty_for(index, hits)
            else:
                selection = fresh or self._dirty_for(index)
                scanned += len(fresh) if fresh else len(self._dirty[0])
            selection = selection and self._select(selection, equalities, similarities)
            if selection:
                bit = 1 << index
                for i in selection:
                    fired[i] |= bit
                selection = array("i", selection)
                fired_in[index].append((rounds, selection))
                firing.append((selection, bit))
        span.set("joined", joins)
        span.set("join_probes", self.probed - probed)
        span.set("scanned", scanned)
        self._partners.clear()
        self._satisfying.clear()
        self.fresh = range(0)
        if self.written_tuples:
            self.written = None
            self.written_tuples = self.written_any = 0
        self._dirty = None
        return firing

    def _dirty_for(self, index: int, hits: Optional[array] = None) -> array:
        """The dirty positions rule ``index`` has not fired on (its RHS
        cells are merged for good there), drawn from a join's ``hits``
        when given, else from the listed dirty pairs."""
        positions, marks = (
            self._dirty_pairs() if hits is None else (hits, self._write_marks(hits))
        )
        dirty = array("i", compress(positions, map(self.layout.reads[index].__and__, marks)))
        if self.fired_in[index]:
            dirty = self._unfired(dirty, 1 << index)
        return dirty

    def _unfired(self, positions: Sequence[int], bit: int) -> array:
        """The positions of ``positions`` the rule of ``bit`` has not fired on."""
        fired = self.fired
        return array("i", [i for i in positions if not fired[i] & bit])

    def _dirty_pairs(self) -> Tuple[array, Sequence[int]]:
        """The positions of the pairs with a tuple the last round wrote,
        and their :meth:`_write_marks`; listed once per round on first
        need."""
        if self._dirty is None:
            listed = array("i")
            if self.written_tuples:
                # A left tuple's mark repeated over its run, a right
                # tuple's read per pair.
                left, right = self.written
                listed.extend(compress(self.everything, map(
                    or_,
                    self.pairs.per_pair(left),
                    map(right.__getitem__, self.right_positions),
                )))
            self._dirty = listed, self._write_marks(listed)
        return self._dirty

    def _write_marks(self, positions: Sequence[int]) -> Sequence[int]:
        """Per position, the ranks the last round wrote at its pair's two
        tuples, as bits the way ``ChaseLayout.reads`` counts them (a
        :func:`rule_masks` array of both sides' ranks)."""
        shift = self.left_width
        marks = rule_masks(shift + len(self.layout.right_names), 0)
        if positions:
            (left, right), lefts, rights = self.written, self.left_positions, self.right_positions
            marks.extend(left[lefts[i]] | right[rights[i]] << shift for i in positions)
        return marks

    def _pending_size(self) -> int:
        """What a scan of the pending positions would read: the fresh ones,
        and once the dirty pairs are listed their count, until then a
        written tuple's mean number of pairs for each written tuple."""
        size = len(self.fresh)
        if self._dirty is not None:
            return size + len(self._dirty[0])
        pairs = len(self.everything)
        return size + min(pairs, self.written_tuples * 2 * pairs // self.tuples)

    def _unite(self, firing, span) -> Tuple[array, Sequence[int]]:
        """Union, once per (pair, RHS group), the representative classes
        of the groups the firing rules write (``ChaseLayout.unions``).
        Returns one member of every class a union made, and per class a
        bit per lane of its group whose cells may disagree (a
        :func:`rule_masks` array, read at roots: a class leaves a round's
        resolution carrying one value, so a union of classes that agree
        lane by lane stays uniform)."""
        layout, values, union_memo = self.layout, self.values, self.layout.union_memo
        root, size, ring = self.root, self.size, self.next
        lefts, rights = self.left_positions, self.right_positions
        left_columns, right_columns = self.left_columns, self.right_columns
        # OR the firing rules into one mask per position (a
        # :func:`rule_masks` array), listing each position once.
        masks, listed = rule_masks(len(self.fired_in), len(self.fired)), array("i")
        for selection, bit in firing:
            for i in selection:
                if not masks[i]:
                    listed.append(i)
                masks[i] |= bit
        touched = array("i")
        mixed = rule_masks(layout.widest, len(root))
        merges = attempts = 0
        for i in listed:
            mask = masks[i]
            unions = union_memo.get(mask) or layout.unions(mask)
            attempts += len(unions)
            left_at, right_at = lefts[i], rights[i]
            for left, right, width, lanes in unions:
                # A representative cell is its class.
                a_cell = left_columns[left] + left_at
                b_cell = right_columns[right] + right_at
                a, b = root[a_cell], root[b_cell]
                if a == b:
                    continue
                # A lane of a class not mixed this round is uniform — its
                # cells hold equal values, or one NaN object resolved into
                # them all — so the pair's own cells compare as the two
                # roots would.
                bits = mixed[a] | mixed[b]
                if not bits & 1 and values[a_cell] != values[b_cell]:
                    bits |= 1
                for bit, left, right in lanes:
                    if not bits & bit and (
                        values[left_columns[left] + left_at]
                        != values[right_columns[right] + right_at]
                    ):
                        bits |= bit
                size_a, size_b = size[a], size[b]
                if size_a < size_b:
                    a, b = b, a
                mixed[a] = bits
                size[a] = size_a + size_b
                member = b
                while True:
                    root[member] = a
                    member = ring[member]
                    if member == b:
                        break
                ring[a], ring[b] = ring[b], ring[a]
                touched.append(a)
                merges += width
        self.applications += merges
        span.set("union_attempts", attempts)
        span.set("merges", merges)
        return touched, mixed

    def _resolve(self, touched: array, mixed: Sequence[int], span) -> None:
        """Resolve every class a union this round made that may disagree,
        and record the writes: what makes pairs dirty for the next round."""
        values, root, blocks = self.values, self.root, self.layout.blocks
        starts, right_classes, left_width = self.starts, self.right_classes, self.left_width
        left_columns, right_columns = self.left_columns, self.right_columns
        places = (self.layout.left_places, self.layout.right_places)
        last_write, rounds, resolver = self.last_write, self.rounds, self.resolver
        if self.written is None:
            left_written = rule_masks(left_width, len(self.left_tids))
            right_written = rule_masks(len(self.layout.right_names), len(self.right_tids))
            self.written = left_written, right_written
        else:
            left_written, right_written = self.written
        written_any = 0
        written_tuples = self.written_tuples
        #: A flag per class: it was resolved this round.
        seen = bytearray(len(root))
        repaired = uniform = resolved_classes = 0
        for anchor in touched:
            anchor = root[anchor]
            if seen[anchor]:
                continue
            seen[anchor] = 1
            side, rank = blocks[bisect_right(starts, anchor) - 1]
            group = places[side][rank][1]
            bits = mixed[anchor]
            if not bits:
                uniform += len(group)
                continue
            members = self._members(anchor)
            split = bisect_left(members, right_classes)
            # A lane's members are the representative's, shifted by the
            # distance between the two columns.
            left0, right0 = left_columns[group[0][0]], right_columns[group[0][1]]
            for lane, (left, right) in enumerate(group):
                if not bits >> lane & 1:
                    uniform += 1
                    continue
                resolved_classes += 1
                left_offset = left_columns[left] - left0
                right_offset = right_columns[right] - right0
                if left_offset or right_offset:
                    slots = [member + left_offset for member in members[:split]] + [
                        member + right_offset for member in members[split:]
                    ]
                else:
                    slots = members
                resolved = resolver([values[slot] for slot in slots])
                for slot in slots:
                    if values[slot] != resolved:
                        last_write[slot] = rounds
                        values[slot] = resolved
                        repaired += 1
                        block = bisect_right(starts, slot) - 1
                        side, rank = blocks[block]
                        position = slot - starts[block]
                        if side:
                            written_any |= 1 << left_width + rank
                            marks = right_written
                        else:
                            written_any |= 1 << rank
                            marks = left_written
                        if not marks[position]:
                            written_tuples += 1
                        marks[position] |= 1 << rank
        self.written_any, self.written_tuples = written_any, written_tuples
        span.set("classes", resolved_classes)
        span.set("uniform", uniform)
        span.set("repairs", repaired)

    def _members(self, klass: int) -> List[int]:
        """The representative cells of class ``klass`` in ``(side, tid,
        attribute)`` order, the order the resolver sees.  Int order is
        ``(side, attribute, tid)``: the same unless a side's cells span two
        columns (a class across attributes), which are sorted by cell."""
        ring, right_classes = self.next, self.right_classes
        members, member = [klass], ring[klass]
        while member != klass:
            members.append(member)
            member = ring[member]
        members.sort()
        split = bisect_left(members, right_classes)
        left_count, right_count = len(self.left_tids), len(self.right_tids)
        if (split and members[0] // left_count != members[split - 1] // left_count) or (
            split < len(members)
            and (members[split] - right_classes) // right_count
            != (members[-1] - right_classes) // right_count
        ):
            members.sort(key=self.decode)
        return members

    # -- narrowing a selection --------------------------------------------

    def _select(self, selection: Sequence[int], equalities, similarities) -> Sequence[int]:
        """The positions of ``selection`` whose pair matches one rule's LHS
        (``selection`` itself for an LHS with no atom), a transient list:
        what the state keeps of it is an ``array('i')``.

        Equality is the paper's ``=``: never true on a null
        (:func:`repro.metrics.base.exact_equality`, inlined).
        """
        values, lefts, rights = self.values, self.left_positions, self.right_positions
        left_columns, right_columns = self.left_columns, self.right_columns
        for left, right in equalities:
            if not selection:
                break
            self.plan.stats.metric_evaluations += len(selection)
            left, right = left_columns[left], right_columns[right]
            selection = [
                i
                for i in selection
                if (v := values[left + lefts[i]]) is not None
                and (w := values[right + rights[i]]) is not None
                and v == w
            ]
        for predicate, left, right in similarities:
            if not selection:
                break
            evaluate = self.plan.evaluate
            left, right = left_columns[left], right_columns[right]
            selection = [
                i
                for i in selection
                if evaluate(predicate, values[left + lefts[i]], values[right + rights[i]])
            ]
        return selection

    def _column(self, side: int, rank: int, cells: Optional[Sequence] = None) -> Sequence:
        """A copy of one column's block of ``cells`` (:attr:`values` when
        not given): a side's entries of one rank, by position."""
        start = (self.right_columns if side else self.left_columns)[rank]
        count = len(self.right_tids if side else self.left_tids)
        return (self.values if cells is None else cells)[start : start + count]

    def _match_tuples(self, atom):
        """Hash-join the two sides' tuples on one equality atom.

        The right tuples are indexed by value — nulls and NaN left out,
        ``=`` is never true on them — as chains: ``latest`` names the last
        right tuple under a value, ``earlier`` (an ``array('i')``) the one
        before each.  Returns ``(probes, heads, earlier)`` —
        ``probes`` counts the (left, right) tuple hits, what locating them
        costs, and ``heads`` is per left tuple its chain's head — or
        ``None`` when a value cannot be hashed: that atom stays a filter.
        """
        left, right = atom
        theirs, ours = self._column(1, right), self._column(0, left)
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
        probes = sum(sizes[value] for value, head in zip(ours, heads) if head is not None)
        return probes, heads, array("i", earlier)

    def _join(self, equalities, size: int):
        """Serve the cheapest of one rule's equality atoms by a hash join,
        if that reads less than filtering ``size`` positions would:
        ``(positions of the pairs satisfying it, the other atoms)``, else
        ``None``.  A left tuple's pairs are its run, ascending by right
        tuple, so a hit is found by bisection within it — no ``pair ->
        position`` table to build and keep."""
        if size <= self.tuples:
            return None
        partners = self._partners
        for atom in equalities:
            if atom not in partners:
                partners[atom] = self._match_tuples(atom)
        joinable = [atom for atom in equalities if partners[atom] is not None]
        if not joinable:
            return None
        atom = min(joinable, key=lambda atom: partners[atom][0])
        probes, heads, earlier = partners[atom]
        if self.tuples + probes >= size:
            return None
        hits = self._satisfying.get(atom)
        if hits is None:
            self.probed += probes
            self.plan.stats.metric_evaluations += probes
            hits = self._satisfying[atom] = array("i")
            runs, rights = self.runs, self.right_positions
            for position, head in enumerate(heads):
                if head is None:
                    continue
                start, end = runs[position], runs[position + 1]
                while head >= 0:
                    at = bisect_left(rights, head, start, end)
                    while at < end and rights[at] == head:
                        hits.append(at)
                        at += 1
                    head = earlier[head]
        return hits, [other for other in equalities if other != atom]

    # -- read-offs ---------------------------------------------------------

    @cached_property
    def holding_masks(self) -> Sequence[int]:
        """Per position, a bit per rule (``1 << index``, ``plan.rules``
        order) whose LHS holds on the pair in ``D'`` — the stability
        check, and every match's provenance.

        A pair a rule fired on holds unevaluated when no repair wrote one
        of the rule's LHS cells of its tuples in or after the round it
        fired in (the span's ``fresh``); the rest of the fired ones, and
        the fresh and dirty positions the rule has not fired on, are
        selected again (``reevaluated``).  Any other pair was last
        evaluated against the values its tuples still carry, and did not
        match.
        """
        fired_in, left_width = self.fired_in, self.left_width
        right_width = len(self.layout.right_names)
        left_positions, right_positions = self.left_positions, self.right_positions
        masks = rule_masks(len(fired_in), len(self.everything))
        # Positions are fresh only while no round ran, and then none is dirty.
        listed = self.fresh or self._dirty_pairs()[0]
        with self.plan.tracer.span("stability-check") as span:
            joins = kept = reevaluated = 0
            for index, ((equalities, similarities, _), history) in enumerate(
                zip(self.layout.rules, fired_in)
            ):
                bit, lhs = 1 << index, self.layout.reads[index]
                stale = array("i")
                if history:
                    lefts = self._last_lhs_write(
                        0, [rank for rank in range(left_width) if lhs >> rank & 1]
                    )
                    rights = self._last_lhs_write(
                        1, [rank for rank in range(right_width) if lhs >> left_width + rank & 1]
                    )
                for fired_round, positions in history:
                    for i in positions:
                        if (
                            lefts[left_positions[i]] < fired_round
                            and rights[right_positions[i]] < fired_round
                        ):
                            masks[i] |= bit
                            kept += 1
                        else:
                            stale.append(i)
                selection = stale + self._unfired(listed, bit)
                joined = self.dense and self._join(equalities, len(selection))
                if joined:
                    joins += 1
                    hits, equalities = joined
                    hit = bytearray(len(masks))
                    for i in hits:
                        hit[i] = 1
                    selection = array("i", compress(selection, map(hit.__getitem__, selection)))
                reevaluated += len(selection)
                for i in self._select(selection, equalities, similarities):
                    masks[i] |= bit
            span.set("joined", joins)
            span.set("fresh", kept)
            span.set("reevaluated", reevaluated)
            self._partners.clear()
            self._satisfying.clear()
        self._check_span = span
        return masks

    def _last_lhs_write(self, side: int, ranks: List[int]) -> Sequence[int]:
        """Per tuple of ``side``, by position, the last round a repair
        wrote one of its ``ranks`` (0: none did)."""
        writes = [self._column(side, rank, self.last_write) for rank in ranks]
        if len(writes) == 1:
            return writes[0]
        return array(self.last_write.typecode, map(max, *writes))

    @cached_property
    def holding(self) -> List[List[int]]:
        """Per rule (``plan.rules`` order), the ascending positions of the
        pairs whose LHS holds in ``D'``: :attr:`holding_masks` by rule."""
        masks = self.holding_masks
        return [
            list(compress(self.everything, map((1 << index).__and__, masks)))
            for index in range(len(self.fired_in))
        ]

    @cached_property
    def stable(self) -> bool:
        """Whether ``(D', D') ⊨ Σ``: every pair of :attr:`holding` carries
        equal RHS values — values, not classes, so merged cells holding a
        value unequal to itself (NaN) are not identified.  Run on first
        read; it records on the ``stability-check`` span."""
        holding, span = self.holding, self._check_span
        left_positions, right_positions = self.left_positions, self.right_positions
        tested = 0
        for rule, (_, _, rhs), selection in zip(self.plan.rules, self.layout.rules, holding):
            if not selection:
                continue
            tested += len(selection)
            lefts = [left_positions[i] for i in selection]
            rights = [right_positions[i] for i in selection]
            for left, right in rhs:
                if any(map(
                    ne,
                    map(self._column(0, left).__getitem__, lefts),
                    map(self._column(1, right).__getitem__, rights),
                )):
                    span.set("rhs_tested", tested)
                    span.set("unstable_rule", rule.name)
                    return False
        span.set("rhs_tested", tested)
        return True

    def _round_one(self) -> Iterable[Sequence[int]]:
        """Per rule, the positions it fired at in round 1, as selected."""
        return (
            history[0][1] if history and history[0][0] == 1 else ()
            for history in self.fired_in
        )

    @cached_property
    def first_round(self) -> List[List[int]]:
        """Per rule, the ascending positions it fired at in round 1 — on
        ``D``, since a round reads only its start values."""
        return [sorted(positions) for positions in self._round_one()]

    @cached_property
    def first_round_masks(self) -> Sequence[int]:
        """Per position, a bit per rule that fired at the pair in round 1
        (a ``direct`` spec's matches and their provenance)."""
        masks = rule_masks(len(self.fired_in), len(self.everything))
        for index, positions in enumerate(self._round_one()):
            bit = 1 << index
            for i in positions:
                masks[i] |= bit
        return masks

    @cached_property
    def repairs(self) -> Dict[Cell, object]:
        """``cell -> final value`` for every cell whose value in ``D'``
        differs from ``D``, in ``(side, tid, attribute)`` order — decoded
        from the written slots on first read."""
        values = self.values
        relations = (self.original.left, self.original.right)
        written = sorted(
            (self.decode(slot), slot)
            for slot in compress(range(len(self.last_write)), self.last_write)
        )
        repairs = {}
        for cell, slot in written:
            side, tid, attribute = cell
            value = values[slot]
            if value != relations[side][tid][attribute]:
                repairs[cell] = value
        return repairs

    @cached_property
    def instance(self) -> InstancePair:
        """The extension ``D'`` = ``D`` + :attr:`repairs`, on first read."""
        extended = self.original.copy()
        for (side, tid, attribute), value in self.repairs.items():
            relation = extended.left if side == LEFT else extended.right
            relation.set_value(tid, attribute, value)
        return extended

    # -- the cells, tuple-facing ------------------------------------------
    #
    # Only a group representative's cells are ever unioned: a cell of
    # another pair in its group is read through its tuple's class of the
    # representative (:meth:`_class`), and a representative class stands
    # for one class per lane — its members shifted by the lane's offsets.

    def cell(self, side: int, tid: int, attribute: str) -> Optional[int]:
        """The int of a cell, ``None`` for one outside the encoding (a
        tuple no pair mentions, an attribute no rule reads or writes, or a
        ``tid`` that is no tuple id: ``False`` or ``0.0`` equals tid 0,
        and is not it)."""
        if not is_tid(tid):
            return None
        if side == LEFT:
            tids, columns, ranks = self.left_tids, self.left_columns, self.layout.left_rank
        else:
            tids, columns, ranks = self.right_tids, self.right_columns, self.layout.right_rank
        position = bisect_left(tids, tid)
        rank = ranks.get(attribute)
        if position == len(tids) or tids[position] != tid or rank is None:
            return None
        return columns[rank] + position

    def _block(self, cell: int) -> Tuple[int, int, int]:
        """The ``(side, rank, position)`` of a cell: its column's, and its
        place in the column."""
        block = bisect_right(self.starts, cell) - 1
        side, rank = self.layout.blocks[block]
        return side, rank, cell - self.starts[block]

    def decode(self, cell: int) -> Cell:
        """The ``(side, tid, attribute)`` an int stands for."""
        side, rank, position = self._block(cell)
        if side:
            return (RIGHT, self.right_tids[position], self.layout.right_names[rank])
        return (LEFT, self.left_tids[position], self.layout.left_names[rank])

    def _class(self, cell: int) -> Tuple[Optional[int], int]:
        """The class ``cell`` is read through — its representative's cell
        in the same tuple; ``None`` for a read-only cell, alone in its
        class — and its lane."""
        side, rank, position = self._block(cell)
        place = (self.layout.right_places if side else self.layout.left_places)[rank]
        if place is None:
            return None, 0
        lane, group = place
        columns = self.right_columns if side else self.left_columns
        return columns[group[0][side]] + position, lane

    def _lanes(self, klass: int) -> Iterable[List[int]]:
        """Per lane of its group, the cells of the class the
        representative class ``klass`` stands for there, in order."""
        members, right_classes = self._members(klass), self.right_classes
        side, rank, _ = self._block(klass)
        group = (self.layout.right_places if side else self.layout.left_places)[rank][1]
        left_columns, right_columns = self.left_columns, self.right_columns
        left0, right0 = left_columns[group[0][0]], right_columns[group[0][1]]
        for left, right in group:
            left, right = left_columns[left] - left0, right_columns[right] - right0
            yield [member + (left if member < right_classes else right) for member in members]

    def same(self, a: Cell, b: Cell) -> bool:
        """Whether the two cells are in one class.  A cell outside the
        encoding was never merged: it is only ever in a class with itself."""
        if a == b:
            return True
        a, b = self.cell(*a), self.cell(*b)
        if a is None or b is None:
            return False
        (a, lane), (b, other) = self._class(a), self._class(b)
        return a is not None and b is not None and lane == other and self.root[a] == self.root[b]

    def members(self, cell: Cell) -> Set[Cell]:
        """All cells in the class of ``cell``."""
        encoded = self.cell(*cell)
        klass, lane = (None, 0) if encoded is None else self._class(encoded)
        if klass is None:
            return {cell}
        return {self.decode(member) for member in list(self._lanes(klass))[lane]}

    def classes(self) -> List[Set[Cell]]:
        """Every merged class with more than one member (a singleton
        carries no identification)."""
        root, size = self.root, self.size
        return [
            {self.decode(member) for member in members}
            for klass in range(len(root))
            if root[klass] == klass and size[klass] > 1
            for members in self._lanes(klass)
        ]

    def identified(
        self, left_tid: int, right_tid: int, attribute_pairs: Iterable[Tuple[str, str]]
    ) -> bool:
        """Were all the given attribute pairs of the two tuples identified?"""
        return all(
            self.same((LEFT, left_tid, left), (RIGHT, right_tid, right))
            for left, right in attribute_pairs
        )

    def matching(self, attribute_pairs: Iterable[Tuple[str, str]]) -> array:
        """The positions (ascending, an ``array('i')``) of the pairs whose
        cells of every given attribute pair were identified: one root
        comparison per pair and RHS group the attribute pairs fall in."""
        homes = self.layout.homes(attribute_pairs)
        if homes is None:
            return array("i")
        if not homes:
            return array("i", self.everything)
        root, lefts, rights = self.root, self.left_positions, self.right_positions
        left_columns, right_columns = self.left_columns, self.right_columns
        # A pair's class at a home is its tuple's cell in the home's
        # column.  The first home scans the position columns in step, its
        # roots read per tuple off the two columns' blocks; a pair it
        # keeps is read at the others.
        (left_home, right_home), *others = homes
        ours, theirs = self._column(0, left_home, root), self._column(1, right_home, root)
        selection = [
            i
            for i, left, right in zip(self.everything, lefts, rights)
            if ours[left] == theirs[right]
        ]
        if not others:
            return array("i", selection)
        others = [(left_columns[left], right_columns[right]) for left, right in others]
        kept = array("i")
        for i in selection:
            left, right = lefts[i], rights[i]
            for left_start, right_start in others:
                if root[left_start + left] != root[right_start + right]:
                    break
            else:
                kept.append(i)
        return kept

    def matches(self, attribute_pairs: Iterable[Tuple[str, str]]) -> List[Tuple[int, int]]:
        """The pairs at :meth:`matching`'s positions — the read-off every
        matcher ends with."""
        left_tids, lefts, rights = self.left_tids, self.left_positions, self.pairs.rights
        return [(left_tids[lefts[i]], rights[i]) for i in self.matching(attribute_pairs)]
