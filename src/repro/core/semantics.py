"""The dynamic semantics of MDs (Section 2.1) and the enforcement chase.

An MD does not constrain a single instance: a *pair* ``(D, D')`` of
instances of ``(R1, R2)`` with ``D ⊑ D'`` satisfies φ when for every tuple
pair ``(t1, t2)`` matching LHS(φ) in ``D``,

(a) ``t1[Z1] = t2[Z2]`` in ``D'`` (the RHS attributes got identified), and
(b) ``(t1, t2)`` still match LHS(φ) in ``D'``.

An instance ``D`` is *stable* for Σ when ``(D, D) ⊨ Σ`` — a fixpoint of
enforcement.  Deduction (Σ ⊨m φ) quantifies over stable instances; the
:func:`enforce` chase below constructs one, which is how MDs are actually
*used* to match records: two tuples are declared a match when enforcement
identified their target attributes.

Enforcement merges *cells* — (side, tuple id, attribute) triples — into
classes, then assigns every merged class a single value chosen by a
:data:`ValueResolver` policy.  Merging is monotone, so the chase
terminates; stability of the result can be re-checked, because a resolver
that changes a value may in principle break a similarity that an earlier
rule application relied on.

There is one representation of the classes, :class:`CellClasses`: cells
are int-encoded (``side_base + position * width + rank``, int order =
cell order) — the attribute half of the encoding once per plan
(:class:`ChaseLayout`), the tuple half per chase — and the classes live
in flat int arrays; the tuple form above appears only at its boundary
(``same`` / ``members`` / ``classes``).  The chase itself and its
result are one object, :class:`~repro.plan.executor.ChaseState`, which
:func:`enforce` returns.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.metrics.registry import DEFAULT_REGISTRY, MetricRegistry
from repro.relations.relation import Relation

from .md import MatchingDependency
from .schema import LEFT, RIGHT, SchemaPair

#: A cell of an instance pair: (side, tuple id, attribute name).
Cell = Tuple[int, int, str]

#: Policy choosing the value a merged cell class takes.  Receives the
#: multiset of current values (nulls included) and returns the resolved one.
#:
#: The contract the chase relies on: given values that are all ``==`` to
#: one another, a policy returns a value ``==`` to them — or ``None`` when
#: they are all null.  Resolving such a class then writes nothing, so the
#: chase skips it (a union of two classes that agree calls no resolver).
#: Every entry of ``repro.api.spec.VALUE_POLICIES`` is held to it by a
#: test.
ValueResolver = Callable[[Sequence[object]], object]


def prefer_informative(values: Sequence[object]) -> object:
    """Default resolver: longest non-null value, then most frequent.

    The matching operator only requires the cells to be *identified*
    (Example 2.2: "does not specify how they are updated"), so the
    resolver is a policy choice.  Preferring the longest value keeps the
    most informative variant ("10 Oak Street, MH, NJ 07974" over the
    truncated "NJ") even when damaged copies outnumber it; frequency then
    lexicographic order break ties deterministically.
    """
    non_null = [value for value in values if value is not None]
    if not non_null:
        return None
    counts: Dict[object, int] = {}
    for value in non_null:
        counts[value] = counts.get(value, 0) + 1
    if len(counts) == 1:
        return non_null[0]
    return max(
        counts,
        key=lambda value: (len(str(value)), counts[value], str(value)),
    )


@dataclass(frozen=True)
class InstancePair:
    """An instance ``D = (I1, I2)`` of a schema pair.

    ``left`` and ``right`` may be the *same* Relation object when matching
    a relation against itself (deduplication); cells are still qualified by
    side, mirroring the qualified attributes of the reasoning layer.
    """

    pair: SchemaPair
    left: Relation
    right: Relation

    def __post_init__(self) -> None:
        if self.left.schema != self.pair.left:
            raise ValueError("left relation schema does not match the pair")
        if self.right.schema != self.pair.right:
            raise ValueError("right relation schema does not match the pair")

    def copy(self) -> "InstancePair":
        """An extension-ready copy (same tuple ids, fresh storage)."""
        if self.left is self.right:
            shared = self.left.copy()
            return InstancePair(self.pair, shared, shared)
        return InstancePair(self.pair, self.left.copy(), self.right.copy())

    def extends(self, original: "InstancePair") -> bool:
        """``original ⊑ self`` componentwise."""
        return self.left.extends(original.left) and self.right.extends(
            original.right
        )

    def tuple_pairs(self) -> Iterable[Tuple[int, int]]:
        """All ``(t1, t2) ∈ D`` as (left tid, right tid) pairs.

        When both sides are the same relation (self-matching), reflexive
        pairs are skipped and each unordered pair is reported once.
        """
        if self.left is self.right:
            tids = self.left.tids()
            for position, tid1 in enumerate(tids):
                for tid2 in tids[position + 1 :]:
                    yield tid1, tid2
        else:
            for tid1 in self.left.tids():
                for tid2 in self.right.tids():
                    yield tid1, tid2


def lhs_matches(
    dependency: MatchingDependency,
    instance: InstancePair,
    left_tid: int,
    right_tid: int,
    registry: MetricRegistry = DEFAULT_REGISTRY,
) -> bool:
    """Do ``(t1, t2)`` match LHS(φ) in the given instance?

    Every conjunct ``R1[X1[j]] ≈_j R2[X2[j]]`` must hold for the tuples'
    current values, with operators resolved through ``registry``.
    """
    t1 = instance.left[left_tid]
    t2 = instance.right[right_tid]
    for atom in dependency.lhs:
        predicate = registry.resolve(atom.operator.name)
        if not predicate(t1[atom.left], t2[atom.right]):
            return False
    return True


def satisfies(
    original: InstancePair,
    extended: InstancePair,
    dependency: MatchingDependency,
    registry: MetricRegistry = DEFAULT_REGISTRY,
    candidate_pairs: Optional[Iterable[Tuple[int, int]]] = None,
) -> bool:
    """``(D, D') ⊨ φ`` per the paper's Section 2.1 definition.

    ``candidate_pairs`` restricts the check to the given tuple pairs (all
    pairs when omitted — quadratic, intended for tests and small data).
    """
    if not extended.extends(original):
        return False
    pairs = candidate_pairs if candidate_pairs is not None else original.tuple_pairs()
    for left_tid, right_tid in pairs:
        if not lhs_matches(dependency, original, left_tid, right_tid, registry):
            continue
        # (a) RHS identified in D'.
        t1 = extended.left[left_tid]
        t2 = extended.right[right_tid]
        for atom in dependency.rhs:
            if t1[atom.left] != t2[atom.right]:
                return False
        # (b) LHS still matched in D'.
        if not lhs_matches(dependency, extended, left_tid, right_tid, registry):
            return False
    return True


def satisfies_all(
    original: InstancePair,
    extended: InstancePair,
    sigma: Iterable[MatchingDependency],
    registry: MetricRegistry = DEFAULT_REGISTRY,
) -> bool:
    """``(D, D') ⊨ Σ``: satisfaction of every MD in Σ."""
    return all(
        satisfies(original, extended, dependency, registry)
        for dependency in sigma
    )


def is_stable(
    instance: InstancePair,
    sigma: Iterable[MatchingDependency],
    registry: MetricRegistry = DEFAULT_REGISTRY,
) -> bool:
    """Is ``D`` stable for Σ, i.e. ``(D, D) ⊨ Σ``?"""
    return satisfies_all(instance, instance, sigma, registry)


#: Where a rank's cells live (:attr:`ChaseLayout.left_places`): the
#: offset from a cell to its group representative's cell, the cell's
#: lane (the index of its RHS pair in the group), and the group's lanes —
#: per RHS pair, its ``(left, right)`` rank offsets from the
#: representative pair.  Outside a group: ``(0, 0, ((0, 0),))``.
Place = Tuple[int, int, Tuple[Tuple[int, int], ...]]
_ALONE: Place = (0, 0, ((0, 0),))


class ChaseLayout(NamedTuple):
    """The plan's half of a chase's encoding, built once per plan and
    storage layout (:attr:`~repro.plan.compile.EnforcementPlan.layouts`):
    per side the chase attributes in sorted-name order and their ranks,
    and every rule as rank offsets from a pair's two tuples —
    ``(equalities, similarities, rhs)`` in selection order, an atom as
    ``(left rank, right rank)``, a similarity led by its predicate.  A
    chase adds only what its pairs decide (:class:`CellClasses`).

    An MD identifies attribute *lists*, so the RHS pairs one set of rules
    writes are identified by the same firings: when none of their
    attributes sits in another RHS pair, their cell classes are copies of
    one partition of the tuples.  Such pairs form an **RHS group**
    (``groups``, each a tuple of rank pairs, its representative first),
    and the chase unions only the representative's cells; every other
    RHS pair — and every one over shared storage, where the order of the
    unions is observable — is a group of one.  ``writes`` is per rule the
    bitmask of the groups it writes, ``reads`` per rule the bitmask of
    the cells its LHS reads (bit ``r`` for left rank ``r``, bit
    ``len(left_names) + r`` for right rank ``r``), ``left_places`` /
    ``right_places`` per rank where its cells live (:data:`Place`), and
    :meth:`unions` the group unions a set of firing rules makes at one
    pair."""

    shared: bool
    left_names: Tuple[str, ...]
    right_names: Tuple[str, ...]
    left_rank: Dict[str, int]
    right_rank: Dict[str, int]
    rules: Tuple[tuple, ...]
    groups: Tuple[Tuple[Tuple[int, int], ...], ...]
    writes: Tuple[int, ...]
    reads: Tuple[int, ...]
    left_places: Tuple[Place, ...]
    right_places: Tuple[Place, ...]
    #: rule bitmask -> :meth:`unions`' answer, filled as masks occur.
    union_memo: Dict[int, tuple]
    #: attribute pairs -> :meth:`homes`' answer, filled as they are read.
    home_memo: Dict[tuple, Optional[Tuple[Tuple[int, int], ...]]]

    @classmethod
    def of(cls, attributes, rules: Iterable[tuple], shared: bool) -> "ChaseLayout":
        """Lower ``rules`` — ``(equalities, similarities, rhs)`` over the
        per-side names in ``attributes`` — to rank offsets, and group
        their RHS pairs; over shared storage both sides use one attribute
        table."""
        left, right = set(attributes[0]), set(attributes[1])
        if shared:
            left = right = left | right
        left_names, right_names = tuple(sorted(left)), tuple(sorted(right))
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
            private = not shared and lefts[pair[0]] == 1 and rights[pair[1]] == 1
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
        left_places = [_ALONE] * len(left_names)
        right_places = [_ALONE] * len(right_names)
        for pairs in groups:
            if len(pairs) == 1:
                continue
            (left0, right0) = pairs[0]
            lanes = tuple((left - left0, right - right0) for left, right in pairs)
            for lane, (left, right) in enumerate(pairs):
                left_places[left] = (left0 - left, lane, lanes)
                right_places[right] = (right0 - right, lane, lanes)
        return cls(
            shared, left_names, right_names, left_rank, right_rank, lowered,
            groups, writes, reads, tuple(left_places), tuple(right_places), {}, {},
        )

    def unions(self, mask: int) -> Tuple[Tuple[int, int, int, tuple], ...]:
        """The unions the rules in ``mask`` (bit ``k`` = rule ``k``) make
        at one pair: a ``(left rank, right rank, size, lanes)`` per group,
        the representative's ranks, the group's size and, per further
        RHS pair, ``(its bit, left offset, right offset)``.  In the order
        the rules and their RHS name the groups — over shared storage the
        order of the unions is observable, and this is the order the
        rules declare.  Memoized per mask."""
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
                (1 << lane, left - left0, right - right0)
                for lane, (left, right) in enumerate(others, 1)
            )
            unions.append((left0, right0, 1 + len(others), lanes))
        found = self.union_memo[mask] = tuple(unions)
        return found

    def homes(
        self, attribute_pairs: Iterable[Tuple[str, str]]
    ) -> Optional[Tuple[Tuple[int, int], ...]]:
        """The ``(left rank, right rank)`` cells a pair is read at to tell
        whether its cells of every given attribute pair were identified:
        one representative pair per RHS group the attribute pairs fall in.
        ``None`` when no pair can be — an attribute outside the encoding,
        or two cells of different lanes, which never share a class.
        Memoized per attribute pair sequence."""
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
            left_offset, lane, _ = self.left_places[left_rank]
            right_offset, other, _ = self.right_places[right_rank]
            if lane != other:
                homes = None
                break
            homes[left_rank + left_offset, right_rank + right_offset] = None
        found = self.home_memo[key] = None if homes is None else tuple(homes)
        return found

    def place(self, cell: int, right_base: int) -> Place:
        """Where ``cell`` of a chase whose right cells start at
        ``right_base`` lives (:data:`Place`)."""
        if cell < right_base:
            return self.left_places[cell % len(self.left_names)]
        return self.right_places[(cell - right_base) % len(self.right_names)]


#: A zero of each unsigned array typecode, narrowest first, with its bits.
_MASK_ZEROS = tuple((array(code).itemsize * 8, array(code, [0])) for code in "BHILQ")


def rule_masks(rule_count: int, count: int) -> Sequence[int]:
    """``count`` zero rule masks (bit ``k`` for rule ``k``), held in an
    array of the smallest unsigned typecode ``rule_count`` bits fit — a
    byte a position for up to 8 rules — and in a list beyond 64 rules."""
    for bits, zero in _MASK_ZEROS:
        if bits >= rule_count:
            return zero * count
    return [0] * count


_SENTINEL, _ZERO, _ONE = array("i", [-1]), array("i", [0]), array("i", [1])
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


class CellClasses:
    """The merged cell classes of one chase, over a flat int encoding.

    Built over the candidate set of one chase
    (:class:`~repro.plan.blocking.CandidateSet`: each left tuple's
    ascending run of right tids; a position is a pair's index into it)
    and the plan's :class:`ChaseLayout`.  The tuples the pairs mention
    get positions in sorted-tid order, the chase attributes of each side
    their layout ranks (sorted-name order), and a cell is the int
    ``side_base + position * width + rank`` — left cells first, so **int
    order is** ``(side, tid, attribute)`` **order** and a sorted member
    list needs no decoding.  ``root``/``size`` are flat int arrays
    (``array('i')``: four bytes a cell, no int object); the members of
    a class form a circular list through ``next`` (a third), which a
    union joins by swapping two entries.  ``root`` is kept flat (a
    union relabels the smaller class), so a class test is one array
    comparison.

    Over shared storage (``left is right``) both sides use one tid and
    one attribute table; a tuple's cell then still exists once per side
    tag — ``right_base`` apart — because the chase identifies *qualified*
    cells.

    Beside the per-pair lists (``left_cells`` / ``right_cells``) the
    encoding has a per-tuple face — ``left_tuples`` / ``right_tuples``,
    every tuple's first cell — which is what the kernel hash-joins an
    equality atom over, and ``runs``, per left tuple the positions of its
    pairs (``runs[p]`` to ``runs[p + 1]``), ascending by right tuple:
    where a joined pair is found by bisection.

    :class:`repro.plan.executor.ChaseState` does the unions, in its
    rounds, over the representative cells of the layout's RHS groups only
    (a cell of another pair in a group, a *follower*, is never unioned
    nor walked, so its ``root`` / ``next`` entries are ``-1``);
    everything tuple-facing (:meth:`same`, :meth:`members`,
    :meth:`classes`, :meth:`matches`) maps a cell to its representative
    and decodes at the boundary.
    """

    def __init__(self, pairs, layout: ChaseLayout) -> None:
        lefts, starts, rights = pairs.lefts, pairs.starts, pairs.rights
        self.pairs = pairs
        self.layout = layout
        #: Per side, the tids in ascending order.
        if layout.shared:
            self.left_tids = self.right_tids = sorted(set(lefts).union(rights))
        else:
            self.left_tids = list(lefts)
            self.right_tids = sorted(set(rights))
        self.left_names, self.right_names = layout.left_names, layout.right_names
        self.left_rank, self.right_rank = layout.left_rank, layout.right_rank
        left_width, right_width = len(self.left_names), len(self.right_names)
        #: The first right cell; over shared storage also the distance
        #: between a tuple's left cell and its right twin.
        self.right_base = len(self.left_tids) * left_width
        # Per side, ``tid -> the tuple's first cell`` (its rank-0
        # attribute): needed only to lay out the pairs' cells below.
        left_first = {
            tid: position * left_width
            for position, tid in enumerate(self.left_tids)
        }
        right_first = {
            tid: self.right_base + position * right_width
            for position, tid in enumerate(self.right_tids)
        }
        #: Per pair, the first cell of its left and of its right tuple.
        self.left_cells: List[int] = list(
            pairs.per_pair(map(left_first.__getitem__, lefts))
        )
        self.right_cells = list(map(right_first.__getitem__, rights))
        #: Per left tuple (``left_tids`` order), where its run starts; a
        #: tuple only ever paired on the right has an empty one.
        if layout.shared:
            self.runs = array("i")
            run = 0
            for tid in self.left_tids:
                self.runs.append(starts[run])
                if run < len(lefts) and lefts[run] == tid:
                    run += 1
            self.runs.append(len(rights))
        else:
            self.runs = starts
        count = self.right_base + len(self.right_tids) * right_width
        #: Per side, every tuple's first cell, in tid order.
        self.left_tuples = range(0, self.right_base, left_width or 1)
        self.right_tuples = range(self.right_base, count, right_width or 1)
        # Only a representative's cells and read-only ones are ever
        # unioned or walked; a follower is read through its representative
        # and its entries are ``-1``.
        root = _identity(count)
        for base, end, width, places in (
            (0, self.right_base, left_width, layout.left_places),
            (self.right_base, count, right_width, layout.right_places),
        ):
            sentinels = None
            for rank, (_, lane, _) in enumerate(places):
                if lane:
                    if sentinels is None:
                        sentinels = _SENTINEL * ((end - base) // width)
                    root[base + rank:end:width] = sentinels
        self.root = root
        self.size = _ONE * count
        self.next = root[:]

    # -- the encoding ----------------------------------------------------

    def cell(self, side: int, tid: int, attribute: str) -> Optional[int]:
        """The int of a cell, ``None`` for one outside the encoding (a
        tuple no pair mentions, or an attribute no rule reads or writes)."""
        if side == LEFT:
            tids, base, ranks = self.left_tids, 0, self.left_rank
        else:
            tids, base, ranks = self.right_tids, self.right_base, self.right_rank
        try:
            position = bisect_left(tids, tid)
        except TypeError:  # not an int: no pair mentions it
            return None
        rank = ranks.get(attribute)
        if position == len(tids) or tids[position] != tid or rank is None:
            return None
        return base + position * len(ranks) + rank

    def decode(self, cell: int) -> Cell:
        """The ``(side, tid, attribute)`` an int stands for."""
        if cell < self.right_base:
            position, rank = divmod(cell, len(self.left_names))
            return (LEFT, self.left_tids[position], self.left_names[rank])
        position, rank = divmod(cell - self.right_base, len(self.right_names))
        return (RIGHT, self.right_tids[position], self.right_names[rank])

    # -- int-facing ------------------------------------------------------

    def ring(self, cell: int) -> List[int]:
        """The members of ``cell``'s class, from ``cell`` round (unsorted);
        a follower cell is never unioned, so it is alone in its ring."""
        ring = self.next
        members = [cell]
        member = ring[cell]
        if member < 0:
            return members
        while member != cell:
            members.append(member)
            member = ring[member]
        return members

    # -- tuple-facing ----------------------------------------------------
    #
    # Only a group representative's cells are ever unioned: a cell of
    # another pair in its group is read through the representative's cell
    # of its tuple (``offset`` away), and a representative class stands
    # for one class per lane — its members shifted by the lane's offsets.

    def _home(self, cell: int) -> Tuple[int, int]:
        """The representative cell ``cell`` is read through, and its lane."""
        offset, lane, _ = self.layout.place(cell, self.right_base)
        return cell + offset, lane

    def _lanes(self, home: int) -> Iterable[List[int]]:
        """Per lane of ``home``'s group, the (sorted) members of the class
        the representative class of ``home`` stands for there."""
        right_base = self.right_base
        members = sorted(self.ring(home))
        for left, right in self.layout.place(home, right_base)[2]:
            yield [
                member + (left if member < right_base else right)
                for member in members
            ]

    def same(self, a: Cell, b: Cell) -> bool:
        """Whether the two cells are in one class.  A cell outside the
        encoding was never merged: it is only ever in a class with itself."""
        if a == b:
            return True
        a, b = self.cell(*a), self.cell(*b)
        if a is None or b is None:
            return False
        (a, lane), (b, other) = self._home(a), self._home(b)
        return lane == other and self.root[a] == self.root[b]

    def members(self, cell: Cell) -> Set[Cell]:
        """All cells in the class of ``cell``."""
        encoded = self.cell(*cell)
        if encoded is None:
            return {cell}
        home, lane = self._home(encoded)
        members = list(self._lanes(home))[lane]
        return {self.decode(member) for member in members}

    def classes(self) -> List[Set[Cell]]:
        """Every merged class with more than one member (a singleton
        carries no identification)."""
        root, size = self.root, self.size
        return [
            {self.decode(member) for member in members}
            for cell in range(len(root))
            if root[cell] == cell and size[cell] > 1
            for members in self._lanes(cell)
        ]

    def matching(self, attribute_pairs: Iterable[Tuple[str, str]]) -> array:
        """The positions (ascending, an ``array('i')``) of the pairs whose
        cells of every given attribute pair were identified: one root
        comparison per pair and RHS group the attribute pairs fall in."""
        homes = self.layout.homes(attribute_pairs)
        if homes is None:
            return array("i")
        root, left_cells, right_cells = self.root, self.left_cells, self.right_cells
        selection: Sequence[int] = range(len(left_cells))
        for left_rank, right_rank in homes:
            selection = [
                i
                for i in selection
                if root[left_cells[i] + left_rank] == root[right_cells[i] + right_rank]
            ]
        return array("i", selection)

    def matches(
        self, attribute_pairs: Iterable[Tuple[str, str]]
    ) -> List[Tuple[int, int]]:
        """The pairs (in order) at the positions :meth:`matching` names."""
        return self.pairs_at(self.matching(attribute_pairs))

    def pairs_at(self, positions: Sequence[int]) -> List[Tuple[int, int]]:
        """The pairs at ``positions``, a tuple each."""
        if not positions:
            return []
        left_width = len(self.left_names) or 1
        right_width = len(self.right_names) or 1
        right_base = self.right_base
        left_cells, right_cells = self.left_cells, self.right_cells
        lefts = [self.left_tids[left_cells[i] // left_width] for i in positions]
        rights = [
            self.right_tids[(right_cells[i] - right_base) // right_width]
            for i in positions
        ]
        return list(zip(lefts, rights))


def enforce(
    instance: InstancePair,
    sigma: Sequence[MatchingDependency],
    registry: MetricRegistry = DEFAULT_REGISTRY,
    resolver: ValueResolver = prefer_informative,
    candidate_pairs: Optional[Sequence[Tuple[int, int]]] = None,
    max_rounds: int = 100,
):
    """Chase ``instance`` with Σ to a stable extension: a
    :class:`~repro.plan.executor.ChaseState`.

    This is the *reference entry point*: it compiles Σ into a throwaway
    :class:`~repro.plan.compile.EnforcementPlan` and runs
    :meth:`~repro.plan.compile.EnforcementPlan.enforce`, the one entry
    point of the chase.  Matchers that chase repeatedly hold a long-lived
    plan instead, sharing the compiled predicates and the similarity memo
    cache across runs.

    ``candidate_pairs`` bounds the quadratic pair scan; matchers pass the
    output of blocking/windowing here.
    """
    # Deliberate lazy import: repro.plan sits above repro.core in the
    # layering and imports this module for the chase's data structures.
    from repro.plan.compile import compile_plan

    plan = compile_plan(sigma=sigma, registry=registry)
    return plan.enforce(
        instance,
        resolver=resolver,
        candidate_pairs=candidate_pairs,
        max_rounds=max_rounds,
    )

