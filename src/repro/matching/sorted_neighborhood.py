"""The Sorted Neighborhood method (merge/purge, Exp-3).

[20]'s rule-based matcher: sort by a key, slide a fixed window, apply the
equational-theory rules to every cross-relation pair inside the window.
The paper's Exp-3 compares SN with the 25 hand rules against SNrck with
rules derived from the top five RCKs, both over the same windowing keys
("the same set of windowing keys were used in these experiments to make
the evaluation fair").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.metrics.registry import DEFAULT_REGISTRY, MetricRegistry
from repro.plan.blocking import RowKey, window_candidates
from repro.relations.relation import Relation

from .evaluate import Pair
from .rules import RuleSet


@dataclass(frozen=True)
class SNResult:
    """Output of a Sorted Neighborhood run."""

    matches: Tuple[Pair, ...]
    candidates_examined: int
    comparisons_made: int

    @property
    def match_count(self) -> int:
        """Number of pairs declared matches."""
        return len(self.matches)


class SortedNeighborhood:
    """A Sorted Neighborhood matcher bound to a rule set.

    Parameters
    ----------
    rules:
        The equational theory deciding matches inside windows.
    window:
        The sliding window size (the paper fixes 10).
    registry:
        Metric registry resolving rule operators.
    """

    def __init__(
        self,
        rules: RuleSet,
        window: int = 10,
        registry: MetricRegistry = DEFAULT_REGISTRY,
    ) -> None:
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        self.rules = rules
        self.window = window
        self.registry = registry

    def run(
        self,
        left: Relation,
        right: Relation,
        left_key: RowKey,
        right_key: RowKey,
        extra_keys: Optional[Sequence[Tuple[RowKey, RowKey]]] = None,
    ) -> SNResult:
        """One (or multi-pass) SN run; returns matches and work counters.

        ``extra_keys`` adds further sort passes whose window candidates are
        unioned with the first pass before rule evaluation.
        """
        candidates = set()
        for keys in [(left_key, right_key), *(extra_keys or ())]:
            candidates.update(
                window_candidates(left, right, *keys, self.window)
            )
        return self.run_on_candidates(left, right, sorted(candidates))

    def run_on_candidates(
        self,
        left: Relation,
        right: Relation,
        candidates: Sequence[Pair],
    ) -> SNResult:
        """Apply the rules to an externally supplied candidate set."""
        matches: List[Pair] = []
        comparisons = 0
        for left_tid, right_tid in candidates:
            comparisons += 1
            if self.rules.matches(
                left[left_tid], right[right_tid], self.registry
            ):
                matches.append((left_tid, right_tid))
        return SNResult(
            matches=tuple(matches),
            candidates_examined=len(candidates),
            comparisons_made=comparisons,
        )
