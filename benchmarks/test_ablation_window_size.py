"""Ablation — sliding-window size (Section 6.2 fixes w = 10).

The paper fixes the window at 10 tuples without showing the sensitivity;
[20]'s merge/purge analysis makes the trade-off explicit: larger windows
buy pairs completeness with quadratically more comparisons.  This bench
sweeps w and reports PC/RR plus the SNrck match quality at each size,
justifying the w = 10 operating point.
"""

from __future__ import annotations

import pytest

from repro.experiments import exp_fs
from repro.experiments.exp_sn import match_on_keys
from repro.experiments.harness import Table
from repro.matching.evaluate import evaluate_matches, evaluate_reduction

_WINDOWS = (2, 5, 10, 20, 40)


@pytest.fixture(scope="module")
def sweep():
    dataset, _, rcks = exp_fs.prepare(1000, seed=0)
    records = []
    for window in _WINDOWS:
        candidates = exp_fs.windowing_candidates(dataset, rcks, window)
        reduction = evaluate_reduction(
            candidates, dataset.true_matches, dataset.total_pairs
        )
        quality = evaluate_matches(
            match_on_keys(dataset, rcks, candidates), dataset.true_matches
        )
        records.append(
            (window, reduction.pairs_completeness, reduction.reduction_ratio,
             len(candidates), quality.recall)
        )
    return records


def test_ablation_window_size(benchmark, sweep):
    dataset, _, rcks = exp_fs.prepare(1000, seed=0)

    benchmark(exp_fs.windowing_candidates, dataset, rcks, 10)

    table = Table(
        "Ablation: window size (K=1000, multi-pass RCK sort keys)",
        ["window", "PC", "RR", "candidates", "SNrck recall"],
    )
    for record in sweep:
        table.add(*record)
    print()
    print(table.render())

    by_window = {record[0]: record for record in sweep}
    # PC grows monotonically with the window; RR shrinks.
    pcs = [record[1] for record in sweep]
    assert pcs == sorted(pcs)
    rrs = [record[2] for record in sweep]
    assert rrs == sorted(rrs, reverse=True)
    # w = 10 already captures most of the achievable completeness.
    assert by_window[10][1] > 0.9 * by_window[40][1]
