"""Fellegi–Sunter (with EM), clustering, and evaluation.

Candidate generation lives in :mod:`repro.plan.blocking`; matching from a
rule set goes through :class:`repro.api.Workspace`.
"""

from .clustering import Cluster, ClusterQuality, cluster_matches, evaluate_clusters
from .comparison import ComparisonSpec, equality_spec, union_of_rcks
from .em import EMEstimate, fit_em
from .evaluate import (
    MatchQuality,
    Pair,
    ReductionQuality,
    evaluate_matches,
    evaluate_reduction,
)
from .fellegi_sunter import FellegiSunter

__all__ = [
    "Cluster",
    "ClusterQuality",
    "ComparisonSpec",
    "EMEstimate",
    "FellegiSunter",
    "MatchQuality",
    "Pair",
    "ReductionQuality",
    "cluster_matches",
    "evaluate_clusters",
    "equality_spec",
    "evaluate_matches",
    "evaluate_reduction",
    "fit_em",
    "union_of_rcks",
]
