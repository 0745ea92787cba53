"""Candidate generation for the enforcement kernel: the blocking layer.

Every matcher needs a candidate-pair generator before it compares anything;
the paper names two families (Section 1): *blocking* — partition by a
derived key, compare within blocks — and *windowing* — sort by a key and
slide a fixed window.  This module is the single home of both, exposed
behind the :class:`BlockingBackend` protocol so a compiled
:class:`~repro.plan.compile.EnforcementPlan` can carry its candidate
generator as a pluggable component:

* the key-derivation primitives (:func:`attribute_key`, :func:`pair_keys`,
  :func:`rck_sort_keys`), the one hash loop (:func:`hash_candidates` is
  its one-pass case; its per-left emission, :func:`emit_unions`, is the
  sorted-neighborhood batch's too), the cross-side window loop over a
  sorted run (:func:`run_pairs`) and one global-window pass of [20]
  (:func:`window_candidates`: sort the merged sequence, then
  :func:`run_pairs` across all of it — the paper's Figs. 9–10 protocol,
  which only :mod:`repro.experiments` runs; a multi-pass run is the union
  of its passes);
* :class:`RCKIndex` — the incremental inverted index, one bucket table
  per RCK-derived key;
* :class:`HashBlockingBackend` — multi-pass hash blocking over RCK
  indexes, serving batch candidate generation *and* the streaming
  engine's per-record ``add``/``probe``;
* :func:`build_blocking` — the one place a blocking configuration (a
  spec's ``blocking`` section plus the RCKs) is resolved to its passes;
  the batch plan, the memory store and the SQLite store all build their
  backend from it: hash, or the sorted-neighborhood
  :class:`~repro.plan.sn_index.WindowedSNIndex`.

Batch and streaming thereby share one blocking implementation: probing an
index with a new record yields exactly the pairs a batch
``candidates(left, right)`` call over the same keys would have generated
for it — both are the union of the record's buckets across passes.  Every
backend carries a ``family`` marker (``"hash"`` or
``"sorted-neighborhood"``) so stores can be checked against the blocking
semantics a spec declares.
"""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.rck import RelativeKey
from repro.core.schema import LEFT
from repro.metrics.soundex import soundex
from repro.relations.relation import Relation, Row

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


def rck_sort_keys(
    rcks: Sequence[RelativeKey],
    attribute_count: int = 3,
) -> Tuple[RowKey, RowKey]:
    """Sort keys from the first attributes of the given RCKs.

    The derived key concatenates the first ``attribute_count`` distinct
    attribute pairs of the RCK list — "(part of) RCKs suffice to serve as
    quality sorting keys" (Section 1, Windowing).
    """
    if not rcks:
        raise ValueError("need at least one RCK")
    chosen = leading_attribute_pairs(rcks, attribute_count)
    left_attrs = [left_attr for left_attr, _ in chosen]
    right_attrs = [right_attr for _, right_attr in chosen]
    return attribute_key(left_attrs), attribute_key(right_attrs)


def emit_unions(left_rows: Iterable[Row], tables: Sequence[PartnerTable]) -> List[Pair]:
    """Each left row, in the order given, paired with the sorted union of
    its partner lists: the emission both blocking families share.

    A table is ``(key, lookup)``: ``lookup(key(row))`` is ``row``'s
    ascending list of right tids in that pass, or ``None``/empty.  Given
    the rows in tid order, the list comes out once each and ascending by
    ``(left_tid, right_tid)`` by construction: no set of pair tuples, no
    global sort.
    """
    candidates: List[Pair] = []
    for row in left_rows:
        hits = [bucket for key, lookup in tables if (bucket := lookup(key(row)))]
        if hits:
            # One bucket is ascending already; several are unioned.
            tids = hits[0] if len(hits) == 1 else sorted(set().union(*hits))
            candidates.extend(zip(repeat(row.tid), tids))
    return candidates


def _union_candidates(
    left: Relation,
    right: Relation,
    passes: Sequence[Tuple[RowKey, RowKey]],
) -> List[Pair]:
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
) -> List[Pair]:
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


def window_candidates(
    left: Relation,
    right: Relation,
    left_key: RowKey,
    right_key: RowKey,
    window: int = 10,
) -> List[Pair]:
    """Candidate pairs from one global-window sorted-neighborhood pass.

    The merged sequence is sorted by the derived key (ties broken by side
    then tuple id, keeping runs deterministic); every pair of a left and a
    right tuple at distance < ``window`` in the sorted order is a
    candidate.

    >>> # window=1 yields no pairs: no two elements share a window
    """
    if window < 2:
        return []
    merged: List[Entry] = [(left_key(row), _LEFT, row.tid) for row in left]
    merged += [(right_key(row), _RIGHT, row.tid) for row in right]
    merged.sort()
    return sorted(run_pairs(merged, window))


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
        self.pairs: Tuple[Tuple[str, str], ...] = tuple(pairs)
        self.left_key, self.right_key = pair_keys(self.pairs, encode_attributes)
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
    support incremental maintenance additionally expose ``add``/``probe``
    (see :class:`HashBlockingBackend`).
    """

    name: str = "none"

    #: Candidate-generation semantics this backend implements; stores
    #: compare it against the spec's declared ``blocking.backend``.
    family: str = "none"

    def candidates(self, left: Relation, right: Relation) -> List[Pair]:
        """All candidate pairs for a batch instance pair: each pair once,
        ascending by ``(left_tid, right_tid)``.

        The order is part of the contract — it is what lets the chase
        find a pair by bisection and serve an equality atom by a hash
        join; a list in any other order is chased all the same, every
        atom filtering it.
        """
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

    def candidates(self, left: Relation, right: Relation) -> List[Pair]:
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

    Arguments in the order the store constructors take them.

    ``"hash"`` blocks on one pass over the explicit ``key_pairs`` when
    given, else on one pass per RCK's leading ``key_length`` attribute
    pairs; ``"sorted-neighborhood"`` sorts on ``key_pairs`` when given,
    else on the RCKs' first three distinct attribute pairs (one rotated
    pass each).  Either way a pair is encoded on both sides when either
    of its names is in ``encode_attributes`` (:func:`pair_keys`).
    ``Workspace`` compiles the result into its plan and each store
    streams over an instance of its own — so a configuration never means
    different keys to different layers.
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
