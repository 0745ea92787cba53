"""Fellegi–Sunter (with EM), clustering, and evaluation.

Candidate generation lives in :mod:`repro.plan.blocking`; matching from a
rule set goes through :class:`repro.api.Workspace`.  The Fig. 9 baselines
(:mod:`.comparison`, :mod:`.em`, :mod:`.fellegi_sunter`) load on first use
of one of their names: the engine and ``repro match`` never run them.
"""

from importlib import import_module

from .clustering import Cluster, ClusterQuality, cluster_matches, evaluate_clusters
from .evaluate import (
    MatchQuality,
    Pair,
    ReductionQuality,
    evaluate_matches,
    evaluate_reduction,
)

#: A baseline name -> the module defining it, imported when first read.
_BASELINES = {
    "ComparisonSpec": ".comparison",
    "equality_spec": ".comparison",
    "union_of_rcks": ".comparison",
    "EMEstimate": ".em",
    "fit_em": ".em",
    "FellegiSunter": ".fellegi_sunter",
}


def __getattr__(name: str):
    module = _BASELINES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value


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
