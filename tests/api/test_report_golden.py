"""Golden reports: ``Workspace.match(...).to_dict()`` is pinned, in two parts.

A match report is the batch pipeline's whole public answer — matches in
candidate order, clusters, per-pair rule provenance — and the plan's
work counters.  The kernel may reorder, batch and skip whatever it likes
inside; none of it may move a byte of the answer.  Each case below pins
the sha256 of the report rendered as ``repro match --json`` renders it
(``json.dumps(..., sort_keys=True)``) without its ``stats``, and the
``stats`` themselves as literals, ``stats.histograms`` dropped — the only
wall-clock-dependent part.  So a kernel change that does less work shows
as the counters it moved, number by number, with the answer held.  The
data is generated credit/billing under the seven ``extended_mds`` rules,
for both blocking families.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache

import pytest

from repro.api import Workspace
from repro.datagen.generator import generate_dataset
from repro.datagen.schemas import extended_mds


def _stats(cache_hits, metric_evaluations, pairs_compared, chase_rounds, applications):
    return {
        "cache_hits": cache_hits,
        "chase_rounds": chase_rounds,
        "compiles": 1,
        "enforcements": 1,
        "factorisation_ratio": 0.0,
        "gauges": {},
        "groups_built": 0,
        "metric_evaluations": metric_evaluations,
        "pairs_compared": pairs_compared,
        "rounds_exhausted": 0,
        "rule_applications": applications,
    }


#: (blocking backend, its options, K, seed) -> (sha256 of the report
#: without ``stats``, the ``stats`` less ``histograms``).
GOLDEN = {
    ("hash", (("key_length", 1),), 400, 7): (
        "595a29460c1a4aa0af2f66eeeeccde972d86107c7fc085746dee341bd49b10b5",
        _stats(1460, 12253, 1446, 3, 4355),
    ),
    ("hash", (("key_length", 1),), 300, 13): (
        "f63a2f437331e91a1e1afd7c085a7d92880a9f16d840715c82bffab70ee68d48",
        _stats(1280, 10900, 1231, 3, 3285),
    ),
    ("sorted-neighborhood", (("window", 10),), 600, 7): (
        "7cc12be42324fbe74b3841affcb3395e118c583945f04f3949aed92143e000d0",
        _stats(1716, 12683, 635, 4, 6450),
    ),
    ("sorted-neighborhood", (("window", 4),), 400, 13): (
        "c351b884ce3465623109be0b45630727a2f6815965baffae41a21005c579b46c",
        _stats(866, 6499, 340, 3, 3410),
    ),
}

CASES = pytest.mark.parametrize(
    "case", sorted(GOLDEN), ids=lambda case: f"{case[0]}-K{case[2]}-s{case[3]}"
)


@lru_cache(maxsize=None)
def report_document(backend, options, size, seed) -> str:
    """The case's report as ``repro match --json`` renders it, less
    ``stats.histograms``."""
    source = generate_dataset(size, seed=seed)
    workspace = (
        Workspace.builder()
        .pair(source.pair)
        .target(source.target)
        .mds(extended_mds(source.pair))
        .blocking(backend, **dict(options))
        .execution(top_k=5)
        .workspace()
    )
    document = workspace.match(source.credit, source.billing).to_dict()
    assert document["matches"] and document["provenance"]
    del document["stats"]["histograms"]
    return json.dumps(document, sort_keys=True)


@CASES
def test_match_report_is_pinned(case):
    document = json.loads(report_document(*case))
    del document["stats"]
    rendered = json.dumps(document, sort_keys=True)
    assert hashlib.sha256(rendered.encode()).hexdigest() == GOLDEN[case][0]


@CASES
def test_match_report_stats_are_pinned(case):
    assert json.loads(report_document(*case))["stats"] == GOLDEN[case][1]
