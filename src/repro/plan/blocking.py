"""Candidate generation for the enforcement kernel: the blocking layer.

Every matcher needs a candidate-pair generator before it compares anything;
the paper names two families (Section 1): *blocking* — partition by a
derived key, compare within blocks — and *windowing* — sort by a key and
slide a fixed window.  This module is the kernel's home of both, exposed
behind the :class:`BlockingBackend` protocol so a compiled
:class:`~repro.plan.compile.EnforcementPlan` can carry its candidate
generator as a pluggable component:

* :class:`CandidateSet` — what every backend's batch ``candidates``
  returns and the chase reads: the pairs as runs, one per left tuple;
* the key-derivation primitives (:func:`attribute_key`, :func:`pair_keys`,
  :func:`leading_attribute_pairs`), the one hash loop
  (:func:`hash_candidates` is its one-pass case; its per-left emission,
  :func:`emit_unions`, is the sorted-neighborhood batch's too) and the
  cross-side window loop over a sorted run (:func:`run_pairs`; the
  global window of the paper's Figs. 9–10 protocol runs it across a
  whole merged sequence, in
  :mod:`repro.experiments.baselines.windowing`);
* :class:`RCKIndex` — the incremental inverted index, one bucket table
  per RCK-derived key;
* :class:`HashBlockingBackend` — multi-pass hash blocking over RCK
  indexes, serving batch candidate generation *and* the streaming
  engine's per-record ``add``/``probe``;
* :func:`build_blocking` — the one place a blocking configuration (a
  spec's ``blocking`` section plus the RCKs) is resolved to its passes,
  as the plan's backend: hash, or the sorted-neighborhood
  :class:`~repro.plan.sn_index.WindowedSNIndex`.  A backend reports its
  passes as a JSON document (:meth:`BlockingBackend.to_dict`) and builds
  an empty twin from one (:meth:`BlockingBackend.from_dict`): a store
  streams over a twin of the plan's backend and its file keeps the
  document.

Batch and streaming thereby share one blocking implementation: probing an
index with a new record yields exactly the pairs a batch
``candidates(left, right)`` call over the same keys would have generated
for it — both are the union of the record's buckets across passes.  Every
backend carries a ``family`` marker (``"hash"`` or
``"sorted-neighborhood"``) so stores can be checked against the blocking
semantics a spec declares.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_right
from itertools import chain, compress, count, islice, repeat
from operator import attrgetter, eq, ne, sub
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
)

from repro.core.rck import RelativeKey
from repro.core.schema import LEFT
from repro.metrics.soundex import soundex
from repro.relations.relation import Relation, Row

T = TypeVar("T")

#: A candidate pair: (left tuple id, right tuple id).
Pair = Tuple[int, int]

#: Derives a blocking/sorting key from a row.
RowKey = Callable[[Row], object]

#: Per-attribute value encoders applied before keying.
Encoder = Callable[[str], str]

#: Attributes Soundex-encoded by default (the schemas' name attributes).
DEFAULT_ENCODED_ATTRIBUTES = ("FN", "LN")

#: Sides in a merged window sequence.
_LEFT = 0
_RIGHT = 1

#: One ranked element of a sorted run: (sort key, side marker, tuple id).
Entry = Tuple[Tuple[str, ...], int, int]

#: One pass of :func:`emit_unions`: a left row's lookup key, and the
#: lookup from it to that pass's ascending right tids.
PartnerTable = Tuple[
    Callable[[Row], Hashable], Callable[[Hashable], Optional[Sequence[int]]]
]

_tid = attrgetter("tid")


class CandidateSet(Sequence[Pair]):
    """A set of candidate pairs as runs: each left tuple once, with the
    ascending run of right tuples it is paired with.

    Compressed sparse rows over three int sequences: ``lefts`` the
    distinct left tids, ascending; ``rights`` one non-empty run per left
    tid, ascending (a pair listed twice sits at adjacent positions);
    ``starts`` the runs' offsets into ``rights``, ``len(lefts) + 1`` of
    them — left tid ``lefts[k]`` is paired with ``rights[starts[k]:
    starts[k + 1]]``.  Blocking and :meth:`of` pack them into
    ``array('i')``, about four bytes a pair where a list of pair tuples
    holds some sixty; a tid beyond a C int (an external record id, say)
    widens its column to ``array('q')``, and one beyond 64 bits to a
    list.  Given sequences are held as they are: the streaming engine's
    delta is its probe's list of partner tids, not a copy.

    As a ``Sequence`` it reads as the pairs ascending by ``(left,
    right)``: ``len``, iteration (a fresh tuple per pair), ``[i]`` by
    bisecting ``starts`` and ``[i:j]`` as a tuple of pairs.  Position
    ``i`` is the ``i``-th pair in that order, which is what a chase's
    positions index.  Two sets are ``==`` when they hold the same pairs;
    a set never equals a list or tuple (compare ``list(candidates)``).

    >>> candidates = CandidateSet.of([(2, 9), (0, 4), (0, 1), (2, 9)])
    >>> list(candidates), len(candidates.lefts), candidates[3]
    ([(0, 1), (0, 4), (2, 9), (2, 9)], 2, (2, 9))
    >>> candidates[1:3]
    ((0, 4), (2, 9))
    >>> (0, 4) in candidates, (2, 4) in candidates
    (True, False)
    >>> CandidateSet.of([(2**40, 1)]).lefts.typecode
    'q'
    """

    __slots__ = ("lefts", "starts", "rights")

    def __init__(
        self,
        lefts: Optional[Sequence[int]] = None,
        starts: Optional[Sequence[int]] = None,
        rights: Optional[Sequence[int]] = None,
    ) -> None:
        """The runs given, held as they are; with none, an empty set to
        :meth:`add_run` to."""
        self.lefts = array("i") if lefts is None else lefts
        self.starts = array("i", (0,)) if starts is None else starts
        self.rights = array("i") if rights is None else rights

    @classmethod
    def of(cls, pairs: Iterable[Pair]) -> "CandidateSet":
        """``pairs`` as runs, sorted: a candidate set is returned as it is."""
        if isinstance(pairs, cls):
            return pairs
        ordered = sorted(pairs)
        if not ordered:
            return cls()
        lefts = [left for left, _ in ordered]
        # A run starts at 0 and wherever the left tid changes.
        firsts = [0, *compress(count(1), map(ne, islice(lefts, 1, None), lefts))]
        return cls(
            int_column([lefts[first] for first in firsts]),
            int_column(firsts + [len(ordered)]),
            int_column([right for _, right in ordered]),
        )

    def add_run(self, left: int, rights: Sequence[int]) -> None:
        """Pair ``left`` — above every left tid so far — with ``rights``,
        a non-empty ascending run."""
        end = len(self.rights)
        try:
            self.rights.extend(rights)
            self.lefts.append(left)
        except OverflowError:  # a tid beyond the columns' type: widen
            del self.rights[end:]
            self.lefts = _extended(self.lefts, (left,))
            self.rights = _extended(self.rights, rights)
        self.starts.append(len(self.rights))

    def __len__(self) -> int:
        return len(self.rights)

    def per_pair(self, values: Iterable[T]) -> Iterator[T]:
        """``values``, one per left tuple in ``lefts`` order, each repeated
        once per pair of its run: per pair, in order, what its left tuple
        maps to (given ``lefts``, its left tid)."""
        if len(self.lefts) == len(self.rights):  # every run one pair long
            return iter(values)
        starts = self.starts
        return chain.from_iterable(
            map(repeat, values, map(sub, islice(starts, 1, None), starts))
        )

    def __iter__(self) -> Iterator[Pair]:
        return zip(self.per_pair(self.lefts), self.rights)

    def __getitem__(self, index):
        index = sequence_index(index, len(self.rights), "candidate")
        if isinstance(index, range):
            return tuple(map(self.__getitem__, index))
        return self.lefts[bisect_right(self.starts, index) - 1], self.rights[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CandidateSet):
            return NotImplemented
        # Runs are non-empty, so equal pair sequences are equal runs.
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"CandidateSet({len(self)} pairs, {len(self.lefts)} left tuples)"


def sequence_index(index: object, length: int, name: str) -> Union[int, range]:
    """``index`` into a sequence of ``length`` items, as ``tuple`` reads
    one: an int (negative counts from the end) is checked and returned
    as a position, a slice as the ``range`` of positions it selects, and
    any other key is a ``TypeError`` naming its type.  ``name`` names
    the items in the errors."""
    if isinstance(index, slice):
        return range(*index.indices(length))
    try:
        position = operator.index(index)
    except TypeError:
        raise TypeError(
            f"{name} indices must be integers or slices, not {type(index).__name__}"
        ) from None
    if position < 0:
        position += length
    if not 0 <= position < length:
        raise IndexError(f"{name} index out of range")
    return position


def column_like(column: Sequence[int], values: Iterable[int]) -> Sequence[int]:
    """``values`` in a column of ``column``'s kind (an array of its
    typecode, or a list): a column read at some positions, say."""
    like = column[:0]
    like.extend(values)
    return like


def int_column(values: Sequence[int]) -> Sequence[int]:
    """``values`` in the narrowest column they fit, as the candidate
    columns are packed: an ``array('i')``, an ``array('q')`` past a C
    int, a list past 64 bits."""
    return _extended(array("i"), values)


def _extended(column: Sequence[int], values: Sequence[int]) -> Sequence[int]:
    """``column`` with ``values`` appended: the same column, or a wider
    copy when a value does not fit its type — ``array('i')`` gives way to
    ``array('q')``, and that to a list."""
    end = len(column)
    try:
        column.extend(values)
    except OverflowError:
        del column[end:]  # an array extended item by item keeps what fit
        wider = array("q", column) if column.typecode == "i" else list(column)
        return _extended(wider, values)
    return column


def attribute_key(
    attributes: Sequence[str],
    encoders: Optional[Sequence[Optional[Encoder]]] = None,
) -> RowKey:
    """A key function concatenating (encoded) attribute values.

    ``encoders[i]`` (when given) transforms the i-th attribute's value —
    e.g. :func:`~repro.metrics.soundex.soundex` for names.  A null is
    keyed as ``""`` (then encoded), so nulls share a block.

    >>> key = attribute_key(["LN"], [soundex])
    >>> # rows with phonetically equal last names collide
    """
    if encoders is not None and len(encoders) != len(attributes):
        raise ValueError("encoders must align with attributes")
    # Every row of every pass is keyed here: one closure per shape and no
    # per-row generator.  ``str`` stands in for "no encoder": it returns
    # a str argument itself.
    fields = [
        (attribute, encoder or str)
        for attribute, encoder in zip(attributes, encoders or repeat(None))
    ]
    if len(fields) == 1:
        ((attribute, encoder),) = fields

        def derive_one(row: Row) -> Tuple[str, ...]:
            value = row[attribute]
            return (encoder("" if value is None else str(value)),)

        return derive_one

    def derive(row: Row) -> Tuple[str, ...]:
        return tuple([
            encoder("" if (value := row[attribute]) is None else str(value))
            for attribute, encoder in fields
        ])

    return derive


def pair_keys(
    pairs: Sequence[Tuple[str, str]], encode_attributes: Iterable[str]
) -> Tuple[RowKey, RowKey]:
    """The left and right key functions of one pass over attribute pairs.

    A pair is Soundex-encoded on both sides when either of its names is
    in ``encode_attributes``: encoding one side only would key the two
    sides in different alphabets, and the pass would block nothing.
    """
    encode = set(encode_attributes)
    encoders = [
        soundex if left in encode or right in encode else None
        for left, right in pairs
    ]
    return (
        attribute_key([left for left, _ in pairs], encoders),
        attribute_key([right for _, right in pairs], encoders),
    )


def encoded_names(
    pairs: Sequence[Tuple[str, str]], encode_attributes: Iterable[str]
) -> Tuple[str, ...]:
    """The names of ``pairs`` listed in ``encode_attributes``, sorted: all
    of the list :func:`pair_keys` reads, so two lists that key ``pairs``
    alike give one tuple.

    >>> encoded_names([("FN", "FN"), ("tel", "phn")], ["LN", "FN"])
    ('FN',)
    """
    names = {name for pair in pairs for name in pair}
    return tuple(sorted(names.intersection(encode_attributes)))


def leading_attribute_pairs(
    rcks: Sequence[RelativeKey],
    attribute_count: int = 3,
) -> List[Tuple[str, str]]:
    """The first ``attribute_count`` distinct attribute pairs of the RCKs.

    The shared selection rule behind every RCK-derived key recipe —
    sort keys, blocking keys, Exp-4's "three attributes in top two RCKs".
    Returns fewer pairs when the RCKs don't provide enough; callers that
    need an exact count must check.
    """
    chosen: List[Tuple[str, str]] = []
    for key in rcks:
        for pair in key.attribute_pairs():
            if pair not in chosen:
                chosen.append(pair)
            if len(chosen) == attribute_count:
                return chosen
    return chosen


def emit_unions(
    left_rows: Iterable[Row], tables: Sequence[PartnerTable]
) -> CandidateSet:
    """Each left row, in the order given, paired with the sorted union of
    its partner lists: the emission both blocking families share.

    A table is ``(key, lookup)``: ``lookup(key(row))`` is ``row``'s
    ascending list of right tids in that pass, or ``None``/empty.  Given
    the rows in tid order, each row with a partner is one run of the
    :class:`CandidateSet`, every pair once and ascending by construction:
    no pair tuple, no set of them, no global sort.
    """
    candidates = CandidateSet()
    for row in left_rows:
        hits = [bucket for key, lookup in tables if (bucket := lookup(key(row)))]
        if hits:
            # One bucket is ascending already; several are unioned.
            candidates.add_run(
                row.tid, hits[0] if len(hits) == 1 else sorted(set().union(*hits))
            )
    return candidates


def _union_candidates(
    left: Relation,
    right: Relation,
    passes: Sequence[Tuple[RowKey, RowKey]],
) -> CandidateSet:
    """The hash loop: cross-relation pairs sharing a bucket in some pass.

    Per pass the right rows are bucketed by key in tid order, so every
    bucket is ascending; :func:`emit_unions` then walks the left rows in
    tid order.
    """
    right_rows = sorted(right, key=_tid)
    tables = []
    for left_key, right_key in passes:
        buckets: Dict[Hashable, List[int]] = {}
        for row in right_rows:
            buckets.setdefault(right_key(row), []).append(row.tid)
        tables.append((left_key, buckets.get))
    return emit_unions(sorted(left, key=_tid), tables)


def hash_candidates(
    left: Relation,
    right: Relation,
    left_key: RowKey,
    right_key: RowKey,
) -> CandidateSet:
    """Candidate pairs: all cross-relation pairs sharing a block key,
    ascending by ``(left_tid, right_tid)``."""
    return _union_candidates(left, right, [(left_key, right_key)])


def run_pairs(run: Sequence[Entry], window: int) -> Set[Pair]:
    """Cross-side pairs at rank distance < ``window`` in a sorted run."""
    pairs: Set[Pair] = set()
    for position, (_, side, tid) in enumerate(run):
        for _, other_side, other_tid in run[position + 1 : position + window]:
            if side == other_side:
                continue
            if side == _LEFT:
                pairs.add((tid, other_tid))
            else:
                pairs.add((other_tid, tid))
    return pairs


class RCKIndex:
    """One inverted index: RCK blocking key → posting lists per side.

    >>> from repro.core.schema import RelationSchema
    >>> from repro.relations.relation import Relation
    >>> schema = RelationSchema("R", ["LN", "zip"])
    >>> index = RCKIndex("ln", [("LN", "LN")])
    >>> relation = Relation(schema)
    >>> tid = relation.insert({"LN": "Clifford", "zip": "07974"})
    >>> row = relation[tid]
    >>> index.add(LEFT, row, index.key_for(LEFT, row))
    ('C416',)
    >>> other = relation[relation.insert({"LN": "Clivord", "zip": "07974"})]
    >>> index.probe(1, other, index.key_for(1, other))  # hits the left row
    [0]
    """

    def __init__(
        self,
        name: str,
        pairs: Sequence[Tuple[str, str]],
        encode_attributes: Iterable[str] = DEFAULT_ENCODED_ATTRIBUTES,
    ) -> None:
        if not pairs:
            raise ValueError("an index needs at least one attribute pair")
        self.name = name
        self.pairs: Tuple[Tuple[str, str], ...] = tuple((l, r) for l, r in pairs)
        self.encode_attributes = encoded_names(self.pairs, encode_attributes)
        self.left_key, self.right_key = pair_keys(self.pairs, self.encode_attributes)
        self._buckets: Dict[Hashable, Tuple[List[int], List[int]]] = {}

    def key_for(self, side: int, row: Row) -> Hashable:
        """The derived blocking key of ``row`` on the given side."""
        return self.left_key(row) if side == LEFT else self.right_key(row)

    def add(self, side: int, row: Row, key: Hashable) -> Hashable:
        """Index ``row`` under its :meth:`key_for`; returns that key."""
        bucket = self._buckets.setdefault(key, ([], []))
        bucket[0 if side == LEFT else 1].append(row.tid)
        return key

    def postings(self, side: int, key: Hashable) -> Sequence[int]:
        """The live *other*-side tuple ids in ``key``'s bucket: read it,
        don't keep it — a later :meth:`add` extends it."""
        bucket = self._buckets.get(key)
        return () if bucket is None else bucket[1 if side == LEFT else 0]

    def probe(self, side: int, row: Row, key: Hashable) -> List[int]:
        """Tuple ids of the *other* side in the bucket of ``row``'s key."""
        return list(self.postings(side, key))

    def __len__(self) -> int:
        return len(self._buckets)

    def largest_bucket(self) -> int:
        """Size of the fullest bucket (both sides counted)."""
        if not self._buckets:
            return 0
        return max(len(lefts) + len(rights) for lefts, rights in self._buckets.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RCKIndex({self.name!r}, {len(self)} buckets)"


def indexes_from_rcks(
    rcks: Sequence[RelativeKey],
    key_length: int = 1,
    encode_attributes: Iterable[str] = DEFAULT_ENCODED_ATTRIBUTES,
) -> List[RCKIndex]:
    """One inverted index per RCK, deduplicated by key specification.

    Each index takes the leading ``key_length`` attribute pairs of its RCK
    (short keys favour recall: a duplicate only needs to agree on one
    leading pair of *some* RCK to be probed).  RCKs whose leading pairs
    coincide share one index.
    """
    if not rcks:
        raise ValueError("need at least one RCK")
    if key_length < 1:
        raise ValueError(f"key_length must be >= 1, got {key_length}")
    indexes: List[RCKIndex] = []
    seen: set = set()
    for position, key in enumerate(rcks):
        pairs = key.attribute_pairs()[:key_length]
        if pairs in seen:
            continue
        seen.add(pairs)
        name = f"rck{position}:" + "+".join(left for left, _ in pairs)
        indexes.append(RCKIndex(name, pairs, encode_attributes))
    return indexes


class BlockingBackend:
    """Protocol for a plan's candidate-pair generator.

    Implementations provide ``name`` plus :meth:`candidates` (batch) and
    :meth:`describe` (for ``repro plan explain``).  Backends that also
    support incremental maintenance — the ones a store streams over —
    additionally expose ``keys_for``/``add``/``probe``/``index_stats``
    and their passes as a document (:meth:`to_dict`; see
    :class:`HashBlockingBackend`).
    """

    name: str = "none"

    #: Candidate-generation semantics this backend implements: the
    #: ``family`` of its :meth:`to_dict` document.
    family: str = "none"

    def to_dict(self) -> Dict[str, object]:
        """The resolved passes as a JSON document — ``family`` plus what
        :meth:`from_dict` needs to build an empty twin: a store's file
        keeps it, and two backends with one document block alike."""
        raise ValueError(
            f"{type(self).__name__} cannot back a store; "
            "stores stream under 'hash' or 'sorted-neighborhood'"
        )

    @staticmethod
    def from_dict(document: Dict[str, object]) -> "BlockingBackend":
        """An empty backend over the passes of a :meth:`to_dict` document.

        >>> twin = BlockingBackend.from_dict(
        ...     {"family": "hash", "indexes": [
        ...         {"name": "ln", "pairs": [["LN", "LN"]], "encode": ["LN"]}]})
        >>> twin.describe(), twin.to_dict()["indexes"][0]["encode"]
        ('hash(1 passes: LN~LN)', ['LN'])
        """
        family = document.get("family")
        if family == "hash":
            return HashBlockingBackend([
                RCKIndex(index["name"], index["pairs"], index["encode"])
                for index in document["indexes"]
            ])
        if family == "sorted-neighborhood":
            # sn_index builds on this module.
            from .sn_index import WindowedSNIndex

            return WindowedSNIndex(document["pairs"], document["window"], document["encode"])
        raise ValueError(
            f"unsupported blocking family {family!r}; "
            "stores stream under 'hash' or 'sorted-neighborhood'"
        )

    def candidates(self, left: Relation, right: Relation) -> CandidateSet:
        """All candidate pairs for a batch instance pair, each once: a
        :class:`CandidateSet`, whose runs are what the chase hash-joins
        an equality atom over."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human description of the backend configuration."""
        raise NotImplementedError


class HashBlockingBackend(BlockingBackend):
    """Multi-pass hash blocking over per-RCK inverted indexes.

    The same index structures serve two access patterns, each the union
    of a record's buckets across passes:

    * **batch** — :meth:`candidates` pairs every left tuple with the right
      tuples sharing one of its buckets (the classic multi-pass blocking
      of Section 1);
    * **streaming** — :meth:`add` maintains the postings on every ingest
      and :meth:`probe` returns a record's candidate neighborhood, which
      is exactly the pair set a batch run over the same keys would have
      generated for it.
    """

    name = "hash"
    family = "hash"

    def __init__(self, indexes: Sequence[RCKIndex]) -> None:
        if not indexes:
            raise ValueError("hash blocking needs at least one index")
        self.indexes: List[RCKIndex] = list(indexes)

    @classmethod
    def per_rck(
        cls,
        rcks: Sequence[RelativeKey],
        key_length: int = 1,
        encode_attributes: Iterable[str] = DEFAULT_ENCODED_ATTRIBUTES,
    ) -> "HashBlockingBackend":
        """One index per RCK's leading ``key_length`` attribute pairs."""
        return cls(indexes_from_rcks(rcks, key_length, encode_attributes))

    # -- batch ---------------------------------------------------------

    def candidates(self, left: Relation, right: Relation) -> CandidateSet:
        """Union of hash-blocking candidates over every index's keys.

        Runs on transient bucket tables — the incremental postings of a
        live store are never touched or rebuilt.
        """
        return _union_candidates(
            left, right, [(index.left_key, index.right_key) for index in self.indexes]
        )

    # -- streaming -----------------------------------------------------

    def keys_for(self, side: int, row: Row) -> Tuple[Hashable, ...]:
        """Every pass's key of ``row``: what :meth:`add` and :meth:`probe`
        take, so a store derives a record's keys once."""
        return tuple(index.key_for(side, row) for index in self.indexes)

    def add(self, side: int, row: Row, keys: Sequence[Hashable]) -> None:
        """Index one arriving record in every pass."""
        for index, key in zip(self.indexes, keys):
            index.add(side, row, key)

    def probe(self, side: int, row: Row, keys: Sequence[Hashable]) -> List[int]:
        """Other-side tuple ids sharing at least one bucket with ``row``."""
        hits: Set[int] = set()
        for index, key in zip(self.indexes, keys):
            hits.update(index.postings(side, key))
        return sorted(hits)

    def index_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-index bucket stats, keyed by index name."""
        return {
            index.name: {
                "buckets": len(index),
                "largest_bucket": index.largest_bucket(),
            }
            for index in self.indexes
        }

    def to_dict(self) -> Dict[str, object]:
        """One entry per index: its name (``index_stats``' key), pairs
        and encoded names."""
        return {
            "family": self.family,
            "indexes": [
                {
                    "name": index.name,
                    "pairs": [list(pair) for pair in index.pairs],
                    "encode": list(index.encode_attributes),
                }
                for index in self.indexes
            ],
        }

    def describe(self) -> str:
        keys = ", ".join(
            "+".join(f"{left}~{right}" for left, right in index.pairs)
            for index in self.indexes
        )
        return f"hash({len(self.indexes)} passes: {keys})"


def build_blocking(
    rcks: Sequence[RelativeKey],
    key_length: int,
    encode_attributes: Iterable[str],
    backend: str,
    window: int,
    key_pairs: Optional[Sequence[Tuple[str, str]]],
) -> BlockingBackend:
    """A blocking configuration resolved to its passes, as a backend.

    ``"hash"`` blocks on one pass over the explicit ``key_pairs`` when
    given, else on one pass per RCK's leading ``key_length`` attribute
    pairs; ``"sorted-neighborhood"`` sorts on ``key_pairs`` when given,
    else on the RCKs' first three distinct attribute pairs (one rotated
    pass each).  Either way a pair is encoded on both sides when either
    of its names is in ``encode_attributes`` (:func:`pair_keys`).
    ``Workspace`` compiles the result into its plan and each store
    streams over an empty twin of it (:meth:`BlockingBackend.from_dict`)
    — so a configuration never means different keys to different
    layers.
    """
    if backend == "hash":
        if key_pairs:
            return HashBlockingBackend(
                [RCKIndex("spec", key_pairs, encode_attributes)]
            )
        return HashBlockingBackend.per_rck(rcks, key_length, encode_attributes)
    if backend == "sorted-neighborhood":
        # sn_index builds on this module.
        from .sn_index import WindowedSNIndex

        return WindowedSNIndex(
            key_pairs or leading_attribute_pairs(rcks, 3),
            window,
            encode_attributes,
        )
    raise ValueError(
        f"unsupported blocking backend {backend!r}; "
        "stores stream under 'hash' or 'sorted-neighborhood'"
    )
