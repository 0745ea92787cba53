"""The global window of the paper's Figs. 9–10 protocol.

One sorted-neighborhood pass of [20] over a merged sequence: sort both
relations on a derived key, then pair every left and right tuple within
``window`` ranks of each other.  The sort keys come from the leading
attributes of the deduced RCKs — "(part of) RCKs suffice to serve as
quality sorting keys" (Section 1, Windowing).  Only the experiments run
it; a spec's sorted-neighborhood blocking is the kernel's
:class:`~repro.plan.sn_index.WindowedSNIndex`, which windows per block.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.rck import RelativeKey
from repro.plan.blocking import (
    _LEFT,
    _RIGHT,
    Entry,
    Pair,
    RowKey,
    attribute_key,
    leading_attribute_pairs,
    run_pairs,
)
from repro.relations.relation import Relation


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
