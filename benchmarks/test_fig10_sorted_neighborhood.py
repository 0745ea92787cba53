"""Fig. 10(a–c) — Sorted Neighborhood with vs without RCKs (Exp-3).

Regenerates the precision (10a), recall (10b) and runtime (10c) series:
SNrck (the top five deduced RCKs as rules) against SN (the 25-rule hand
theory), both matched through ``Workspace`` direct mode on shared
windowing candidates.

Reproduction target (shape): SNrck precision strictly above SN at every K,
and SNrck faster than SN (fewer, tighter rules).  Note (EXPERIMENTS.md):
our reconstructed 25-rule baseline is more permissive than [20]'s, so its
*recall* is competitive while its precision pays for it — the paper's
baseline lost on both.
"""

from __future__ import annotations

import pytest

from repro.experiments import exp_fs, exp_sn


@pytest.fixture(scope="module")
def series(bench_sizes):
    return exp_sn.run(sizes=bench_sizes, seed=0)


def test_fig10_sorted_neighborhood(benchmark, series, bench_sizes):
    size = max(bench_sizes)
    dataset, candidates, rcks = exp_fs.prepare(size, seed=0)

    matches = benchmark(exp_sn.match_on_keys, dataset, rcks, candidates)
    assert matches

    print()
    print(exp_sn.render(series))

    for record in series:
        assert record["SNrck precision"] > record["SN precision"], (
            f"SNrck must win precision at K={record['K']}"
        )
        assert record["SNrck seconds"] < record["SN seconds"], (
            f"SNrck must be faster at K={record['K']}"
        )
        assert record["SNrck recall"] > 0.85
