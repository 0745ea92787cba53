"""The batch answer, held as positions into the chased candidate set.

In the dynamic semantics (Section 2.1) a pair matches when the chase
identified its target cells: a property of one candidate position.  So
what :meth:`~repro.api.workspace.Workspace.match` answers is a subset of
the :class:`~repro.plan.blocking.CandidateSet` it chased — the matched
positions, ascending, in an ``array('i')`` — plus one rule mask per
match, and the report reads them through views instead of holding a
tuple per pair: :class:`Matches` (a ``Sequence`` of ``(left, right)``
pairs), :class:`Provenance` (a ``Mapping`` from a matched pair to its
rule names) and the clusters, a
:class:`~repro.matching.clustering.ClusterList`.  Like the candidates,
the matches are a union of products — one left tid × its run of right
tids — and :meth:`MatchReport.write_json` formats them straight from
those columns.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from operator import eq
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

from repro.matching.clustering import ClusterList
from repro.matching.evaluate import Pair
from repro.plan.blocking import CandidateSet, column_like, sequence_index

#: The most list items one written piece of JSON holds.
_PIECE = 1024


def _joined(column: Sequence[int], starts: Sequence[int], start: int, stop: int):
    """Per row ``start`` to ``stop`` of a compressed-rows ``column``, its
    items as JSON writes a list's, without the brackets."""
    base = starts[start]
    texts = list(map(str, column[base:starts[stop]]))
    bounds = [offset - base for offset in starts[start:stop + 1]]
    return map(", ".join, map(texts.__getitem__, map(slice, bounds, bounds[1:])))


class Matches(Sequence[Pair]):
    """The matches of a batch run: ascending positions into the candidate
    set chased.

    As a ``Sequence`` it reads as the matched pairs ascending by ``(left,
    right)`` — a pair listed twice among the candidates matches at both
    positions, so it is listed twice here too — with ``[i]`` and
    iteration giving ``(int, int)`` tuples and a slice a tuple of them.
    It compares equal to a list or tuple of the same pairs, as the tuple
    it replaces did; ``in`` and :meth:`find` bisect the candidate set.
    """

    __slots__ = ("candidates", "positions", "_lefts")

    def __init__(self, candidates: CandidateSet, positions: Sequence[int]) -> None:
        self.candidates = candidates
        self.positions = positions
        #: Per match, its left tid: read off the runs on first need.
        self._lefts: Optional[Sequence[int]] = None

    def columns(
        self, start: int = 0, stop: Optional[int] = None
    ) -> Tuple[Sequence[int], Sequence[int]]:
        """The left and the right tids of matches ``start`` to ``stop``
        (all of them by default): two columns of the candidate set's kind,
        no tuple a pair.  The left column is kept (four bytes a match)."""
        candidates = self.candidates
        lefts = self._lefts
        if lefts is None:
            matched = bytearray(len(candidates))
            for i in self.positions:
                matched[i] = 1
            lefts = self._lefts = column_like(
                candidates.lefts,
                compress(candidates.per_pair(candidates.lefts), matched),
            )
        rights = candidates.rights
        return lefts[start:stop], column_like(
            rights, map(rights.__getitem__, self.positions[start:stop])
        )

    def find(self, pair: Pair) -> int:
        """The index of ``pair``'s first match, ``-1`` if it has none."""
        candidates = self.candidates
        lefts, starts, rights = candidates.lefts, candidates.starts, candidates.rights
        try:
            left, right = pair
            run = bisect_left(lefts, left)
            if run == len(lefts) or lefts[run] != left:
                return -1
            end = starts[run + 1]
            at = bisect_left(rights, right, starts[run], end)
        except (TypeError, ValueError):  # not a pair of ints
            return -1
        positions = self.positions
        index = bisect_left(positions, at)
        if index < len(positions) and positions[index] < end and (
            rights[positions[index]] == right
        ):
            return index
        return -1

    def __contains__(self, pair: object) -> bool:
        return self.find(pair) >= 0

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, index):
        index = sequence_index(index, len(self.positions), "match")
        if isinstance(index, range):
            return tuple(map(self.__getitem__, index))
        return self.candidates[self.positions[index]]

    def __iter__(self) -> Iterator[Pair]:
        for start in range(0, len(self.positions), _PIECE):
            yield from zip(*self.columns(start, start + _PIECE))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Matches, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Matches({len(self)} of {len(self.candidates)} candidates)"


class Provenance(Mapping[Pair, Tuple[str, ...]]):
    """For each matched pair, the names of the rules that justified it.

    One rule mask per match (bit ``k`` for ``rules[k]``), aligned with
    ``matches``, and named when read: each distinct mask once.  Its keys
    are the distinct matched pairs, in match order; a pair listed twice
    holds alike at both of its positions (the chase reads the same cells
    for both).
    """

    __slots__ = ("matches", "masks", "rules", "_named")

    def __init__(
        self, matches: Matches, masks: Sequence[int], rules: Sequence[str]
    ) -> None:
        self.matches = matches
        self.masks = masks
        self.rules = tuple(rules)
        self._named: Dict[int, Tuple[str, ...]] = {}

    def names(self, mask: int) -> Tuple[str, ...]:
        """The names of the rules in ``mask``, in rule order."""
        named = self._named.get(mask)
        if named is None:
            named = self._named[mask] = tuple(
                name for index, name in enumerate(self.rules) if mask >> index & 1
            )
        return named

    def __getitem__(self, pair: Pair) -> Tuple[str, ...]:
        index = self.matches.find(pair) if self.masks else -1
        if index < 0:
            raise KeyError(pair)
        return self.names(self.masks[index])

    def __iter__(self) -> Iterator[Pair]:
        if not self.masks:
            return
        previous = None
        for pair in self.matches:
            if pair != previous:
                yield pair
            previous = pair

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __bool__(self) -> bool:
        return bool(self.masks)

    def __repr__(self) -> str:
        return f"Provenance({len(self.masks)} matches, {len(self.rules)} rules)"


@dataclass(frozen=True)
class MatchReport:
    """The unified result of any spec-driven batch matching run.

    Attributes
    ----------
    matches, candidates:
        The declared matches, ascending, and the candidate pairs they were
        drawn from: the :class:`~repro.plan.blocking.CandidateSet` the
        chase ran over (pairs handed in another form, sorted into one).
        A run's ``matches`` are :class:`Matches`, positions into it.
    clusters:
        The matches consolidated into entity clusters (transitive
        closure), each with ``left_tids`` / ``right_tids``: a run's are a
        :class:`~repro.matching.clustering.ClusterList`.
    provenance:
        For each matched pair, the names of the compiled rules/keys that
        justified it (``rck0``/``md1`` — the names ``plan explain``
        prints): a run's is a :class:`Provenance`, empty when not asked.
    stats:
        A snapshot of the plan's cumulative :class:`~repro.plan.compile.PlanStats`
        counters taken when the report was built (``compiles`` stays 1 for
        a workspace's whole lifetime), merged with the workspace's
        :class:`~repro.obs.MetricsRegistry` — its counters flat alongside
        the plan counters, plus ``"gauges"`` and ``"histograms"``
        (p50/p95/p99 summaries) sub-mappings.  Every pre-existing
        ``PlanStats`` field keeps its key and meaning.
    fingerprint:
        The spec fingerprint the run executed under.
    mode:
        ``"direct"`` or ``"enforce"``.

    Any sequences and mapping of the same shapes make a report too (a
    tuple of pairs, a tuple of :class:`~repro.matching.clustering.Cluster`,
    a dict): it renders them alike.
    """

    matches: Sequence[Pair]
    candidates: Sequence[Pair]
    clusters: Sequence[object]
    provenance: Mapping[Pair, Tuple[str, ...]]
    stats: Mapping[str, object]
    fingerprint: str
    mode: str

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable rendering of the report."""
        return {
            "mode": self.mode,
            "spec_fingerprint": self.fingerprint,
            "matches": [list(pair) for pair in self.matches],
            "candidate_count": len(self.candidates),
            "clusters": [
                {
                    "left_tids": sorted(cluster.left_tids),
                    "right_tids": sorted(cluster.right_tids),
                }
                for cluster in self.clusters
            ],
            "provenance": [
                {"pair": list(pair), "rules": list(rules)}
                for pair, rules in self._entries()
            ],
            "stats": dict(self.stats),
        }

    def _entries(self) -> Iterator[Tuple[Pair, Tuple[str, ...]]]:
        """``(pair, rule names)`` for every match with provenance, in
        match order: one lookup a match."""
        matches = self.matches
        named = zip(matches, map(self.provenance.get, matches))
        return ((pair, rules) for pair, rules in named if rules is not None)

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), sort_keys=True)``, byte for byte,
        without building the tree: what ``repro match --json`` prints."""
        return "".join(self._json_pieces())

    def write_json(self, stream) -> None:
        """Write :meth:`to_json`'s text to ``stream`` a piece at a time —
        how ``repro match --json`` prints it, never holding all of it."""
        for piece in self._json_pieces():
            stream.write(piece)

    def _json_pieces(self) -> Iterator[str]:
        """The JSON text in pieces of up to 1 024 list items.  A run's
        pair lists are formatted straight from the candidate set's tid
        columns and each distinct rule mask is encoded once; only the
        small ``stats`` mapping, and clusters or pairs held in any other
        form, go through the encoder."""
        matches, provenance, clusters = self.matches, self.provenance, self.clusters

        def listed(count, render) -> Iterator[str]:
            for start in range(0, count, _PIECE):
                yield ", " * (start > 0) + ", ".join(render(start, start + _PIECE))

        def pairs(start, stop):
            if isinstance(matches, Matches):
                return map("[%d, %d]".__mod__, zip(*matches.columns(start, stop)))
            return map("[%d, %d]".__mod__, matches[start:stop])

        yield '{"candidate_count": %d, "clusters": [' % len(self.candidates)
        yield from listed(len(clusters), self._cluster_texts)
        yield '], "matches": ['
        yield from listed(len(matches), pairs)
        yield '], "mode": %s, "provenance": [' % json.dumps(self.mode)
        if isinstance(provenance, Provenance) and provenance.matches is matches:
            yield from listed(len(provenance.masks), self._entry_texts)
        else:
            held = list(self._entries())
            encoded: Dict[Tuple[str, ...], str] = {}

            def entries(start, stop):
                for pair, rules in held[start:stop]:
                    text = encoded.get(rules)
                    if text is None:
                        text = encoded[rules] = json.dumps(list(rules))
                    yield '{"pair": [%d, %d], "rules": %s}' % (*pair, text)

            yield from listed(len(held), entries)
        yield '], "spec_fingerprint": %s, "stats": %s}' % (
            json.dumps(self.fingerprint), json.dumps(dict(self.stats), sort_keys=True)
        )

    def _cluster_texts(self, start: int, stop: int) -> Iterator[str]:
        clusters = self.clusters
        if isinstance(clusters, ClusterList):
            stop = min(stop, len(clusters))
            yield from map(
                '{"left_tids": [%s], "right_tids": [%s]}'.__mod__,
                zip(
                    _joined(clusters.lefts, clusters.left_starts, start, stop),
                    _joined(clusters.rights, clusters.right_starts, start, stop),
                ),
            )
            return
        yield json.dumps([
            {
                "left_tids": sorted(cluster.left_tids),
                "right_tids": sorted(cluster.right_tids),
            }
            for cluster in clusters[start:stop]
        ])[1:-1]

    def _entry_texts(self, start: int, stop: int) -> Iterator[str]:
        """Provenance entries ``start`` to ``stop``, one per match: each
        distinct rule mask's names encoded once."""
        provenance = self.provenance
        masks = provenance.masks[start:stop]
        encoded = {
            mask: json.dumps(list(provenance.names(mask))) for mask in set(masks)
        }
        return map(
            '{"pair": [%d, %d], "rules": %s}'.__mod__,
            zip(*self.matches.columns(start, stop), map(encoded.__getitem__, masks)),
        )
