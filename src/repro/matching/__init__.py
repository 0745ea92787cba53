"""Clustering and evaluation.

Candidate generation lives in :mod:`repro.plan.blocking`; matching from a
rule set goes through :class:`repro.api.Workspace`.  The Fig. 9
Fellegi–Sunter baselines are :mod:`repro.experiments.baselines`.
"""

from .clustering import Cluster, ClusterQuality, cluster_matches, evaluate_clusters
from .evaluate import (
    MatchQuality,
    Pair,
    ReductionQuality,
    evaluate_matches,
    evaluate_reduction,
)

__all__ = [
    "Cluster",
    "ClusterQuality",
    "MatchQuality",
    "Pair",
    "ReductionQuality",
    "cluster_matches",
    "evaluate_clusters",
    "evaluate_matches",
    "evaluate_reduction",
]
