"""Ablation — mined MDs vs hand-written MDs (Sections 7 and 8).

Section 7: "one can first discover a small set of MDs via sampling and
learning, and then leverage the reasoning techniques to deduce RCKs.  The
initial set of MDs can also be produced by domain knowledge analysis."

This bench runs the full pipeline both ways on the same data — mine MDs
from a labelled sample vs use the 7 expert MDs — deduces RCKs from each,
and compares match quality on a held-out dataset.
"""

from __future__ import annotations

import pytest

from repro.core.findrcks import find_rcks
from repro.datagen.generator import generate_dataset
from repro.datagen.schemas import extended_mds
from repro.discovery import (
    DiscoveryConfig,
    discover_mds,
    random_labelled_pairs,
    sample_labelled_pairs,
)
from repro.api import Workspace
from repro.experiments.harness import Table, resolution_spec_document
from repro.matching.evaluate import evaluate_matches
from repro.plan.blocking import attribute_key, window_candidates


@pytest.fixture(scope="module")
def pipeline_outputs():
    train = generate_dataset(800, seed=5)
    key = attribute_key(["zip", "LN"])
    candidates = window_candidates(train.credit, train.billing, key, key, 10)
    sample = sample_labelled_pairs(
        candidates, train.true_matches, limit=5000, seed=0
    )
    sample += random_labelled_pairs(
        train.credit, train.billing, train.true_matches, 5000, seed=1
    )
    mined = discover_mds(
        train.credit,
        train.billing,
        sample,
        train.target,
        DiscoveryConfig(min_confidence=0.97, min_support=10, max_lhs=2),
    )
    mined_sigma = [rule.dependency for rule in mined]
    expert_sigma = extended_mds(train.pair)

    held_out = generate_dataset(800, seed=91)
    results = {}
    for label, sigma in (("mined", mined_sigma), ("expert", expert_sigma)):
        rcks = find_rcks(sigma, train.target, m=5)
        matcher = Workspace.from_dict(
            resolution_spec_document(
                train.pair, train.target, [], rcks=rcks,
                execution={"mode": "direct"},
            )
        )
        outcome = matcher.match(held_out.credit, held_out.billing)
        results[label] = (
            len(sigma),
            evaluate_matches(outcome.matches, held_out.true_matches),
        )
    return results


def test_ablation_discovery_vs_expert(benchmark, pipeline_outputs):
    table = Table(
        "Ablation: mined vs expert MDs (held-out K=800)",
        ["source", "#MDs", "precision", "recall", "f1"],
    )
    for label, (count, quality) in pipeline_outputs.items():
        table.add(label, count, quality.precision, quality.recall, quality.f1)

    train = generate_dataset(400, seed=5)
    key = attribute_key(["zip", "LN"])
    candidates = window_candidates(train.credit, train.billing, key, key, 10)
    sample = sample_labelled_pairs(
        candidates, train.true_matches, limit=3000, seed=0
    ) + random_labelled_pairs(
        train.credit, train.billing, train.true_matches, 3000, seed=1
    )
    benchmark(
        discover_mds,
        train.credit,
        train.billing,
        sample,
        train.target,
        DiscoveryConfig(min_confidence=0.97, min_support=10, max_lhs=2),
    )

    print()
    print(table.render())

    mined_quality = pipeline_outputs["mined"][1]
    expert_quality = pipeline_outputs["expert"][1]
    # Mined rules should be competitive with expert rules (within 10 F1
    # points) — the Section 7 complementarity claim.
    assert mined_quality.f1 > expert_quality.f1 - 0.10
    assert mined_quality.precision > 0.9
