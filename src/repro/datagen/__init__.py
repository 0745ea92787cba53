"""Synthetic data: schemas, corpora, noise, datasets, random MD workloads."""

from .generator import (
    MatchingDataset,
    figure1_instances,
    generate_dataset,
)
from .mdgen import (
    DEFAULT_OPERATORS,
    GeneratedWorkload,
    generate_workload,
    synthetic_pair,
)
from .noise import DEFAULT_MIX, NoiseModel, light_noise
from .schemas import (
    credit_billing_pair,
    extended_mds,
    extended_pair,
    extended_target,
    paper_mds,
    paper_target,
)
from .streams import (
    StreamEvent,
    StreamWorkload,
    arrival_stream,
    duplicate_burst_stream,
    late_duplicate_stream,
)

__all__ = [
    "DEFAULT_MIX",
    "DEFAULT_OPERATORS",
    "GeneratedWorkload",
    "MatchingDataset",
    "NoiseModel",
    "StreamEvent",
    "StreamWorkload",
    "arrival_stream",
    "credit_billing_pair",
    "duplicate_burst_stream",
    "late_duplicate_stream",
    "extended_mds",
    "extended_pair",
    "extended_target",
    "figure1_instances",
    "generate_dataset",
    "generate_workload",
    "light_noise",
    "paper_mds",
    "paper_target",
    "synthetic_pair",
]
