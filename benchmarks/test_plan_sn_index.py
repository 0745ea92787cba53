"""BENCH — the window-encoded sorted-neighborhood index.

Acceptance benchmark for ``repro.plan.sn_index``: on the generated
K-record credit/billing dataset under a sorted-neighborhood spec
(window 10), the rank-encoded index must split its runs into more than
one block and **stream to the batch candidate universe**: replaying the
dataset through ``Workspace.stream`` (the incremental rank encoding, one
``bisect.insort`` per pass per record) must leave the live index
describing exactly the batch run's candidate pairs.

Results are printed as one JSON document and appended to
``REPRO_BENCH_JSON`` when set; CI schema-checks the output with
``benchmarks/check_bench_json.py``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.api import Workspace
from repro.datagen.generator import generate_dataset
from repro.datagen.schemas import extended_mds
from repro.datagen.streams import arrival_stream
from repro.experiments.harness import resolution_spec_document

from conftest import sn_index_size

WINDOW = 10


def _emit(payload):
    text = json.dumps(payload, sort_keys=True)
    print()
    print(text)
    sink = os.environ.get("REPRO_BENCH_JSON")
    if sink:
        with Path(sink).open("a", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _document(dataset):
    return resolution_spec_document(
        dataset.pair,
        dataset.target,
        extended_mds(dataset.pair),
        blocking={"backend": "sorted-neighborhood", "window": WINDOW},
        execution={"mode": "enforce"},
    )


def run_sn_point(size: int, seed: int = 3):
    """The batch SN match, plus the streamed-index differential."""
    dataset = generate_dataset(size, seed=seed)
    workspace = Workspace.from_dict(_document(dataset))
    candidates = workspace.candidates(dataset.credit, dataset.billing)
    report = workspace.match(
        dataset.credit, dataset.billing, candidates=candidates
    )

    # Streamed-index differential: replay the dataset through the
    # incremental rank encoding and compare candidate universes.
    matcher = Workspace.from_dict(_document(dataset)).stream()
    for event in arrival_stream(dataset, seed=seed).events:
        matcher.ingest(event.side, event.values, tid=event.tid)
    stream_index = matcher.store.blocking

    return {
        "metrics": workspace.metrics.as_dict(),
        "benchmark": "sn_index",
        "K": size,
        "candidates": len(candidates),
        "blocks": stream_index.block_count(),
        "matches": len(report.matches),
        "stream_candidates_identical": int(
            stream_index.scan_candidates() == sorted(candidates)
        ),
    }


def test_sn_index_shards_and_streams(benchmark):
    """Runs split into blocks; streamed candidates ≡ batch."""
    record = benchmark.pedantic(
        run_sn_point, args=(sn_index_size(),),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    _emit(record)
    assert record["candidates"] > 0
    assert record["matches"] > 0
    assert record["blocks"] > 1
    # The streamed index converges on the batch candidate universe.
    assert record["stream_candidates_identical"] == 1
