"""Record-matching methods, clustering, and evaluation.

Candidate generation lives in :mod:`repro.plan.blocking`; matching from a
rule set goes through :class:`repro.api.Workspace`.
"""

from .clustering import Cluster, ClusterQuality, cluster_matches, evaluate_clusters
from .comparison import (
    ComparisonSpec,
    equality_spec,
    spec_from_rck,
    union_of_rcks,
)
from .em import EMEstimate, fit_em
from .evaluate import (
    MatchQuality,
    Pair,
    ReductionQuality,
    evaluate_matches,
    evaluate_reduction,
)
from .fellegi_sunter import FellegiSunter
from .rules import MatchRule, RuleSet, default_person_rules, rules_from_rcks
from .sorted_neighborhood import SNResult, SortedNeighborhood

__all__ = [
    "Cluster",
    "ClusterQuality",
    "ComparisonSpec",
    "EMEstimate",
    "FellegiSunter",
    "MatchQuality",
    "MatchRule",
    "Pair",
    "ReductionQuality",
    "RuleSet",
    "SNResult",
    "SortedNeighborhood",
    "cluster_matches",
    "evaluate_clusters",
    "default_person_rules",
    "equality_spec",
    "evaluate_matches",
    "evaluate_reduction",
    "fit_em",
    "rules_from_rcks",
    "spec_from_rck",
    "union_of_rcks",
]
