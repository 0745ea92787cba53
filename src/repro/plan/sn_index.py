"""Window-encoded sorted-neighborhood index: rank ranges over block runs.

The global window of the paper's Figs. 9–10 protocol
(:func:`~repro.experiments.baselines.windowing.window_candidates`) is
batch-only — it sorts the merged sequence from scratch per call — so
only the experiments run it.  :class:`WindowedSNIndex` is the
sorted-neighborhood every spec, store and service gets
(:func:`~repro.plan.blocking.build_blocking`): it maintains a **rank
encoding** of each pass's sort keys, in the spirit of pre/post-order tree
encodings that turn traversals into range scans:

* every element is kept at its rank in a sorted run of
  ``(key, side, tid)`` entries, maintained incrementally by binary
  insertion on :meth:`add` — the merged sequence never re-sorts;
* a window is a **rank-range query**: :meth:`probe` bisects to the
  record's rank and scans the ±(window−1) rank interval around it;
* the sorted sequence is **split at block boundaries** — runs are
  partitioned by the leading key component (the encoded leading
  attribute), and windows never span a boundary.  An arrival then
  touches one short run per pass, and (with the rotated passes below)
  each keyed attribute gets its own partition to recover recall in.

Block confinement alone would be lossy: two records that disagree on the
leading attribute (a typo'd first name, say) can never share a block, no
matter how similar the rest of their key is.  The classic remedy is
**multi-pass** sorted-neighborhood, and the index applies it: with key
``pairs`` (a1, a2, …, an), pass *i* sorts by the rotation
(aᵢ, …, an, a1, …, aᵢ₋₁), so every keyed attribute leads exactly one
pass and blocks one partition.  A candidate pair survives if the two
records agree on the encoded leading value of *any* pass — dropped pairs
disagree on **every** keyed attribute's encoded value, and such pairs
were never going to satisfy an RCK built from those comparisons.

A batch :meth:`~WindowedSNIndex.candidates` call is the hash loop of
:mod:`repro.plan.blocking` run on each pass's leading encoded key.  Every
row is keyed once (pass *i*'s block is component *i* of pass 0's key),
and per pass the right tids are bucketed by block in tid order.  A block
of at most ``window`` entries is its own window, so each of its left
tuples is paired with its whole right bucket; only a longer block is
sorted by (rotated key, side, tid) and windowed into per-left partner
lists.  Each left tuple, in tid order, then emits the sorted union of
its partners across passes (:func:`~repro.plan.blocking.emit_unions`):
no entry is rotated outside a long block, and no set of pairs is built
or sorted.

Streaming and batch agree by construction on the *final* state: a run's
layout depends only on the key/side/tid triples, never on arrival order,
so :meth:`scan_candidates` over a live index equals :meth:`candidates`
over the same rows.  At-arrival probes are a refinement, not an exact
prefix of the batch set: a probe sees the window over the elements
*currently* ranked, so two records may sit within one window early in the
stream and drift apart as later arrivals rank between them.  Drifted
pairs are extra *comparisons* (within one block, hence one leading key
class), and the differential suite pins that the decided matches and
clusters still converge to the batch run's.
"""

from __future__ import annotations

import bisect
from itertools import repeat
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.core.schema import LEFT
from repro.plan.blocking import (
    _LEFT,
    _RIGHT,
    _tid,
    DEFAULT_ENCODED_ATTRIBUTES,
    BlockingBackend,
    CandidateSet,
    Entry,
    Pair,
    PartnerTable,
    RowKey,
    emit_unions,
    encoded_names,
    pair_keys,
    run_pairs,
)
from repro.relations.relation import Relation, Row


def window_neighbors(
    run: Sequence[Entry], entry: Entry, window: int
) -> List[int]:
    """Other-side tuple ids within ``entry``'s rank window in a sorted run.

    The rank-range query of :meth:`WindowedSNIndex.probe`: bisect to the
    entry's rank (insertion-point semantics when the entry is not ranked
    yet) and scan the ±(window−1) interval.
    """
    if window < 2 or not run:
        return []
    position = bisect.bisect_left(run, entry)
    present = position < len(run) and run[position] == entry
    found: Set[int] = set()
    lower = max(0, position - window + 1)
    upper = min(len(run), position + window)
    for rank in range(lower, upper):
        candidate = run[rank]
        if candidate == entry:
            continue
        if rank >= position and not present:
            distance = rank - position + 1
        else:
            distance = abs(rank - position)
        if distance >= window:
            continue
        if candidate[1] != entry[1]:
            found.add(candidate[2])
    return sorted(found)


def _rotations(
    pairs: Tuple[Tuple[str, str], ...]
) -> Tuple[Tuple[Tuple[str, str], ...], ...]:
    """One sort-key rotation per attribute pair, each leading once."""
    return tuple(
        pairs[position:] + pairs[:position] for position in range(len(pairs))
    )


class WindowedSNIndex(BlockingBackend):
    """Incremental multi-pass sorted-neighborhood over block-confined runs.

    One pass per attribute pair in ``pairs`` (left attribute, right
    attribute): pass *i* sorts by the rotation of ``pairs`` starting at
    pair *i*, so each attribute leads exactly one pass and partitions its
    blocks.  A pair either of whose names is in ``encode_attributes`` is
    Soundex-encoded on both sides before keying, exactly like the hash
    backend's :class:`~repro.plan.blocking.RCKIndex`
    (:func:`~repro.plan.blocking.pair_keys`), so a spec's stream and
    batch runs derive identical keys.

    A window below 2 is legal at this level and yields no candidates —
    no two elements ever share a window, as in the experiments' global
    window.  (Spec *validation* rejects it upstream, because a silent
    empty candidate set is never what a spec author meant.)

    >>> from repro.core.schema import RelationSchema
    >>> from repro.relations.relation import Relation
    >>> schema = RelationSchema("R", ["LN", "FN"])
    >>> index = WindowedSNIndex([("LN", "LN"), ("FN", "FN")], window=3)
    >>> relation = Relation(schema)
    >>> row = relation[relation.insert({"LN": "Clifford", "FN": "Alice"})]
    >>> index.add(0, row, index.keys_for(0, row))
    >>> other = relation[relation.insert({"LN": "Clivord", "FN": "Alyce"})]
    >>> index.probe(1, other, index.keys_for(1, other))  # same block, near
    [0]
    """

    name = "sorted-neighborhood"
    family = "sorted-neighborhood"

    def __init__(
        self,
        pairs: Sequence[Tuple[str, str]],
        window: int = 10,
        encode_attributes: Iterable[str] = DEFAULT_ENCODED_ATTRIBUTES,
    ) -> None:
        if not pairs:
            raise ValueError(
                "a sorted-neighborhood index needs at least one attribute pair"
            )
        self.pairs: Tuple[Tuple[str, str], ...] = tuple(
            (left, right) for left, right in pairs
        )
        self.window = int(window)
        self.encode_attributes = encoded_names(self.pairs, encode_attributes)
        #: Per-pass sort keys: rotation *i* leads with ``pairs[i]``.
        self.passes: Tuple[Tuple[Tuple[str, str], ...], ...] = _rotations(
            self.pairs
        )
        self._left_keys: List[RowKey] = []
        self._right_keys: List[RowKey] = []
        for rotation in self.passes:
            left_key, right_key = pair_keys(rotation, self.encode_attributes)
            self._left_keys.append(left_key)
            self._right_keys.append(right_key)
        #: Live rank runs: one ``{block: run}`` map per pass.
        self._blocks: List[Dict[str, List[Entry]]] = [
            {} for _ in self.passes
        ]

    # -- keys and blocks -----------------------------------------------

    @property
    def pass_count(self) -> int:
        """Number of sort passes (one per keyed attribute pair)."""
        return len(self.passes)

    def key_for(self, side: int, row: Row, position: int = 0) -> Tuple[str, ...]:
        """The derived sort key of ``row`` for pass ``position``."""
        keys = self._left_keys if side == LEFT else self._right_keys
        return keys[position](row)

    @staticmethod
    def block_of(key: Tuple[str, ...]) -> str:
        """The block a key ranks in: its leading encoded component."""
        return key[0]

    def keys_for(self, side: int, row: Row) -> Tuple[Tuple[str, ...], ...]:
        """Every pass's sort key of ``row``: what :meth:`add` and
        :meth:`probe` take."""
        return tuple(
            self.key_for(side, row, position)
            for position in range(self.pass_count)
        )

    def _entries(self, side: int, row: Row, keys) -> List[Entry]:
        marker = _LEFT if side == LEFT else _RIGHT
        return [(key, marker, row.tid) for key in keys]

    # -- streaming -----------------------------------------------------

    def add(self, side: int, row: Row, keys) -> None:
        """Rank one arriving record into its block run per pass."""
        for blocks, entry in zip(self._blocks, self._entries(side, row, keys)):
            bisect.insort(blocks.setdefault(self.block_of(entry[0]), []), entry)

    def probe(self, side: int, row: Row, keys) -> List[int]:
        """Other-side tuple ids within ``row``'s rank window in any pass.

        A rank-range query per pass: bisect to the record's rank in its
        block run (the record itself is already ranked when the engine
        probes, but an un-added row is handled by insertion-point
        semantics), then scan the ±(window−1) rank interval.
        """
        found: Set[int] = set()
        for blocks, entry in zip(self._blocks, self._entries(side, row, keys)):
            run = blocks.get(self.block_of(entry[0]), [])
            found.update(window_neighbors(run, entry, self.window))
        return sorted(found)

    def scan_candidates(self) -> CandidateSet:
        """All cross-side window pairs over the *live* rank runs.

        Arrival-order independent: equals :meth:`candidates` over the
        same rows, because a run's final layout is the sorted entry list
        either way.
        """
        pairs: Set[Pair] = set()
        if self.window >= 2:
            for blocks in self._blocks:
                for run in blocks.values():
                    pairs.update(run_pairs(run, self.window))
        return CandidateSet.of(pairs)

    # -- batch ---------------------------------------------------------

    def candidates(self, left: Relation, right: Relation) -> CandidateSet:
        """Block-confined window candidates for a batch instance pair.

        The hash loop (:func:`~repro.plan.blocking.emit_unions`) on each
        pass's leading encoded key: a block no longer than the window is
        its own window, so its left tuples' partners are its whole right
        bucket; only a longer block is sorted and windowed.  Runs on
        transient tables — the live runs of a streaming store are never
        touched or rebuilt.
        """
        window = self.window
        if window < 2:
            return CandidateSet()
        left_rows = sorted(left, key=_tid)
        # Pass i's key is pass 0's rotated by i, so its block is pass 0's
        # component i: every row is keyed once.
        left_key, right_key = self._left_keys[0], self._right_keys[0]
        left_keys = {row.tid: left_key(row) for row in left_rows}
        right_keys = {row.tid: right_key(row) for row in sorted(right, key=_tid)}
        tables: List[PartnerTable] = []
        for position in range(self.pass_count):
            rights: Dict[str, List[int]] = {}
            for tid, key in right_keys.items():
                rights.setdefault(key[position], []).append(tid)
            lefts: Dict[str, List[int]] = {}
            for tid, key in left_keys.items():
                lefts.setdefault(key[position], []).append(tid)
            partners: Dict[int, Sequence[int]] = {}
            for block, block_lefts in lefts.items():
                block_rights = rights.get(block)
                if block_rights is None:
                    continue
                # Rank distances in a block reach its length - 1: below
                # the window, every left-right pair of it is a candidate.
                if window > len(block_lefts) + len(block_rights) - 1:
                    partners.update(zip(block_lefts, repeat(block_rights)))
                    continue
                run: List[Entry] = [
                    (right_keys[tid][position:] + right_keys[tid][:position], _RIGHT, tid)
                    for tid in block_rights
                ] + [
                    (left_keys[tid][position:] + left_keys[tid][:position], _LEFT, tid)
                    for tid in block_lefts
                ]
                run.sort()
                for left_tid, right_tid in sorted(run_pairs(run, window)):
                    partners.setdefault(left_tid, []).append(right_tid)
            tables.append((_tid, partners.get))
        return emit_unions(left_rows, tables)

    # -- introspection -------------------------------------------------

    def block_count(self) -> int:
        """Number of live block runs, summed over passes."""
        return sum(len(blocks) for blocks in self._blocks)

    def index_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-pass stats in the store's index-stats shape.

        Keys stay ``buckets``/``largest_bucket`` for CLI compatibility;
        for a rank index they count block runs and the longest run.
        """
        stats: Dict[str, Dict[str, int]] = {}
        for position, rotation in enumerate(self.passes):
            blocks = self._blocks[position]
            name = "sn:" + "+".join(left for left, _ in rotation)
            stats[name] = {
                "buckets": len(blocks),
                "largest_bucket": (
                    max(len(run) for run in blocks.values()) if blocks else 0
                ),
            }
        return stats

    def to_dict(self) -> Dict[str, object]:
        """The pairs (pass *i* leads with pair *i*), window and encoded
        names."""
        return {
            "family": self.family,
            "pairs": [list(pair) for pair in self.pairs],
            "window": self.window,
            "encode": list(self.encode_attributes),
        }

    def describe(self) -> str:
        detail = "+".join(f"{left}~{right}" for left, right in self.pairs)
        return (
            f"sorted-neighborhood(window={self.window}, rank-encoded, "
            f"{self.pass_count} rotated pass(es) on {detail}; "
            "runs split at block boundaries)"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WindowedSNIndex(window={self.window}, "
            f"{self.pass_count} pass(es), {self.block_count()} block run(s))"
        )
