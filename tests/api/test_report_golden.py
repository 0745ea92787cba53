"""Golden reports: ``Workspace.match(...).to_dict()`` is pinned byte for byte.

A match report is the batch pipeline's whole public answer — matches in
candidate order, clusters, per-pair rule provenance and the plan's work
counters.  The kernel may reorder, batch and skip whatever it likes
inside; none of it may move a byte of the report.  Each digest below is
the sha256 of the report rendered as ``repro match --json`` renders it
(``json.dumps(..., sort_keys=True)``) with ``stats.histograms`` dropped —
the only wall-clock-dependent part — on generated credit/billing data
under the seven ``extended_mds`` rules, for both blocking families.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import Workspace
from repro.datagen.generator import generate_dataset
from repro.datagen.schemas import extended_mds

#: (blocking backend, its options, K, seed) -> sha256 of the report.
GOLDEN = {
    ("hash", (("key_length", 1),), 400, 7):
        "b2cf8e68acf8a43e2d9db4f0d8ed71164f170e24cad5190f7e708aa4f13f87ff",
    ("hash", (("key_length", 1),), 300, 13):
        "4d30fb49a1784a498f0c17bb058f649df08da5d250bad244a4e7667156a89898",
    ("sorted-neighborhood", (("window", 10),), 600, 7):
        "dc01a139f90f8918689bd387315b079c624ad5399feeb006a30530c5e0ce7e5e",
    ("sorted-neighborhood", (("window", 4),), 400, 13):
        "9ab21e65f708a68b932bfebfca4b009e5f263a0ffee899d70de98263ffd79687",
}


def report_digest(backend, options, size, seed):
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
    rendered = json.dumps(document, sort_keys=True)
    return hashlib.sha256(rendered.encode()).hexdigest()


@pytest.mark.parametrize(
    "case", sorted(GOLDEN), ids=lambda case: f"{case[0]}-K{case[2]}-s{case[3]}"
)
def test_match_report_is_pinned(case):
    assert report_digest(*case) == GOLDEN[case]
