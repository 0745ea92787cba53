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

A third test pins the work round by round, not only its totals: per
round the ``chase-round`` span's join and scan counts and unions, its
``resolve-merged`` child's classes and repairs, and the
``stability-check`` span's fresh / re-evaluated split, all read off a
traced ``Workspace.match`` of the same cases.
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

#: The ``chase-round`` attributes pinned per round, then its
#: ``resolve-merged`` child's (a round that merged nothing has none),
#: and the ``stability-check`` attributes.
ROUND = ("joined", "join_probes", "scanned", "union_attempts", "merges")
RESOLVE = ("classes", "uniform", "repairs")
CHECK = ("joined", "fresh", "reevaluated")

#: The case -> (per round, ``ROUND`` + ``RESOLVE`` values; the
#: stability check's ``CHECK`` values).
ROUNDS = {
    ("hash", (("key_length", 1),), 400, 7): (
        [
            (7, 2653, 0, 2515, 4219, 313, 524, 889),
            (7, 2885, 0, 1067, 136, 15, 107, 20),
            (0, 0, 246, 14, 0),
        ],
        (0, 2399, 557),
    ),
    ("hash", (("key_length", 1),), 300, 13): (
        [
            (7, 2488, 0, 2126, 3143, 213, 382, 593),
            (7, 2550, 0, 897, 142, 7, 98, 14),
            (0, 0, 276, 5, 0),
        ],
        (0, 2036, 445),
    ),
    ("sorted-neighborhood", (("window", 10),), 600, 7): (
        [
            (0, 0, 4445, 3418, 6270, 406, 875, 979),
            (0, 0, 3668, 1382, 178, 21, 123, 46),
            (0, 0, 287, 31, 2, 0, 2, 0),
            (0, 0, 0, 0, 0),
        ],
        (0, 3432, 612),
    ),
    ("sorted-neighborhood", (("window", 4),), 400, 13): (
        [
            (0, 0, 2380, 1785, 3299, 215, 625, 461),
            (0, 0, 1785, 659, 111, 5, 86, 5),
            (0, 0, 36, 6, 0),
        ],
        (0, 1903, 220),
    ),
}

CASES = pytest.mark.parametrize(
    "case", sorted(GOLDEN), ids=lambda case: f"{case[0]}-K{case[2]}-s{case[3]}"
)


def _workspace(backend, options, size, seed, traced=False):
    """The case's data and workspace (a traced one if asked)."""
    source = generate_dataset(size, seed=seed)
    builder = (
        Workspace.builder()
        .pair(source.pair)
        .target(source.target)
        .mds(extended_mds(source.pair))
        .blocking(backend, **dict(options))
        .execution(top_k=5)
    )
    if traced:
        builder = builder.observability()
    return source, builder.workspace()


@lru_cache(maxsize=None)
def report_document(backend, options, size, seed) -> str:
    """The case's report as ``repro match --json`` renders it, less
    ``stats.histograms``."""
    source, workspace = _workspace(backend, options, size, seed)
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


@CASES
def test_chase_work_is_pinned_round_by_round(case):
    source, workspace = _workspace(*case, traced=True)
    workspace.match(source.credit, source.billing)
    rounds, checks = [], []
    for root in workspace.tracer.roots:
        for span, _ in root.walk():
            if span.name == "chase-round":
                row = tuple(span.attrs[key] for key in ROUND)
                for child in span.children:
                    if child.name == "resolve-merged":
                        row += tuple(child.attrs[key] for key in RESOLVE)
                rounds.append(row)
            elif span.name == "stability-check":
                checks.append(tuple(span.attrs[key] for key in CHECK))
    expected_rounds, expected_check = ROUNDS[case]
    assert rounds == expected_rounds
    assert checks == [expected_check]
