"""Pinned sizes and seeded inputs.

Sizes are constants (``FULL``; ``TINY`` for the smoke test), the seed is
an argument: the same seed gives the same files, events and op schedule.
All data is the paper's credit/billing setting —
``repro.datagen.generate_dataset`` with its default 80 % duplicates and
``extended_mds`` — generated inside the benchmark process; the program
under test receives only files and requests.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional

#: Workload names, in reporting order.  The names are the contract
#: ``BENCHMARK.json`` lists.
WORKLOADS = ("match_dense", "match_sparse", "stream_durable", "serve_mixed")

#: ``--seconds`` default; ``BENCHMARK.json`` ``run_seconds`` matches it.
DEFAULT_SECONDS = 20
DEFAULT_SEED = 7

FULL: Dict[str, Dict[str, object]] = {
    # ~115 k candidate pairs, ~5 % of them match: atom evaluation and
    # factorisation inside plan.executor carry the wall.
    "match_dense": {
        "K": 6000,
        "blocking": ("hash", {"key_length": 1}),
        "nominal_wall_s": 6.0,
        "setup_repeats": 7,
        # execution knob flipped by the traced pass's strategy probe, and
        # the metric it reports; this is also where dl(0.8) is sampled.
        "probe": ("factorised", False, "plan.executor.pairwise_enforce_s"),
        "dl_microbench": True,
    },
    # ~22 k candidates, ~87 % match: union / resolve-merged / provenance /
    # clustering / CSV / JSON share the wall, atom evaluation is minor.
    "match_sparse": {
        "K": 20000,
        "blocking": ("sorted-neighborhood", {"window": 10}),
        "nominal_wall_s": 6.0,
        "setup_repeats": 3,
        "probe": ("workers", 2, "plan.parallel.enforce_w2_s"),
        "dl_microbench": False,
    },
    # 2760 events, one ingest + one commit each, fresh SQLite store.
    "stream_durable": {
        "K": 2300,
        "blocking": ("hash", {"key_length": 1}),
        "nominal_wall_s": 7.0,
        "warmup_events": 460,
        "batch": 32,
        "setup_repeats": 7,
    },
    # Real server child over SQLite, driven over the wire.
    "serve_mixed": {
        "K": 3000,
        "blocking": ("hash", {"key_length": 1}),
        "warm_events": 900,
        "bulk_events": 1500,
        "bulk_batch": 16,
        "bulk_nominal_s": 4.0,
        "connections": 2,
        "rate_ops_per_s": 40,
        "mix": {"ingest": 0.70, "query": 0.25, "match": 0.05},
        "match_rows": (5, 20),
        "limit_ms": 100.0,
        "setup_repeats": 3,
    },
}

TINY: Dict[str, Dict[str, object]] = {
    "match_dense": {**FULL["match_dense"], "K": 300, "setup_repeats": 1},
    "match_sparse": {**FULL["match_sparse"], "K": 600, "setup_repeats": 1},
    "stream_durable": {
        **FULL["stream_durable"], "K": 150, "warmup_events": 30, "setup_repeats": 1,
    },
    "serve_mixed": {
        **FULL["serve_mixed"],
        "K": 300, "warm_events": 120, "bulk_events": 180, "setup_repeats": 1,
    },
}

#: Timed seconds of a ``--tiny`` run's open-loop phase.
TINY_ONLINE_SECONDS = 2.0


def sizes(tiny: bool) -> Dict[str, Dict[str, object]]:
    return TINY if tiny else FULL


def repeats_for(config: Dict[str, object], seconds: float, tiny: bool) -> int:
    """How many timed repeats fill ``seconds``: never fewer than 3, never
    more than 8; one for ``--tiny``."""
    if tiny:
        return 1
    return max(3, min(8, round(seconds / float(config["nominal_wall_s"]))))


def dataset(size: int, seed: int):
    from repro.datagen.generator import generate_dataset

    return generate_dataset(size, seed=seed)


def build_spec(
    source,
    blocking,
    store_path: Optional[Path] = None,
    serve: bool = False,
    traced: bool = False,
):
    """The workload's ``ResolutionSpec`` over ``extended_mds``.

    ``store_path`` selects the SQLite store (repo pragmas unchanged: WAL +
    ``synchronous=NORMAL``); ``serve`` adds the spec-default serve
    section on an ephemeral port; ``traced`` turns on the program's own
    ``observability.enabled`` spans.
    """
    from repro.api import Workspace
    from repro.datagen.schemas import extended_mds

    backend, options = blocking
    builder = (
        Workspace.builder()
        .pair(source.pair)
        .target(source.target)
        .mds(extended_mds(source.pair))
        .blocking(backend, **options)
        .execution(top_k=5)
    )
    if store_path is not None:
        builder.persistence("sqlite", str(store_path))
    if serve:
        builder.serve(port=0)
    if traced:
        builder.observability(enabled=True)
    return builder.build()
