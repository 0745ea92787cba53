"""Ablation — single RCK vs the union of top-k RCKs (Section 6.2 text).

"In the experiments we also found that a single RCK tended to yield a
lower recall, because any noise in the RCK attributes might lead to a
miss-match.  This is mediated by using the union of several RCKs."

This bench quantifies that claim: rule-based matching with the top-1 RCK,
top-3, and top-5 unions on the same candidates.
"""

from __future__ import annotations

import pytest

from repro.experiments import exp_fs
from repro.experiments.exp_sn import match_on_keys
from repro.experiments.harness import Table
from repro.matching.evaluate import evaluate_matches


@pytest.fixture(scope="module")
def prepared():
    return exp_fs.prepare(1000, seed=0)


def test_ablation_rck_union(benchmark, prepared):
    dataset, candidates, rcks = prepared

    table = Table(
        "Ablation: number of RCKs in the matching rule set (K=1000)",
        ["top-k", "precision", "recall", "f1"],
    )
    recalls = {}
    for k in (1, 3, 5):
        matches = match_on_keys(dataset, rcks[:k], candidates)
        quality = evaluate_matches(matches, dataset.true_matches)
        recalls[k] = quality.recall
        table.add(k, quality.precision, quality.recall, quality.f1)

    benchmark(match_on_keys, dataset, rcks[:5], candidates)

    print()
    print(table.render())

    # The paper's claim: unions rescue the recall a single key loses.
    assert recalls[5] > recalls[1]
    assert recalls[3] >= recalls[1]
