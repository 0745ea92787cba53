"""The paper's primary contribution: MDs, RCKs, and their reasoning.

Public surface:

* schemas and comparable lists — :mod:`repro.core.schema`
* symbolic similarity operators — :mod:`repro.core.similarity`
* matching dependencies — :mod:`repro.core.md`, text syntax in
  :mod:`repro.core.parser`
* relative (candidate) keys — :mod:`repro.core.rck`
* deduction: ``Σ ⊨m φ`` — :mod:`repro.core.closure` (Section 4)
* RCK discovery — :mod:`repro.core.findrcks` (Section 5) with the quality
  model of :mod:`repro.core.quality`
* dynamic semantics and the enforcement chase — :mod:`repro.core.semantics`
"""

from .closure import ClosureEngine, ClosureStats, Justification, deduces
from .explain import Explanation, Step, explain
from .findrcks import all_rcks, find_rcks, is_complete, minimize, pairing, sort_mds
from .matrix import SimilarityMatrix
from .md import (
    IdentificationAtom,
    MatchingDependency,
    SimilarityAtom,
    equality_md,
    md,
    total_size,
)
from .parser import MDSyntaxError, format_md, parse_md, parse_mds
from .quality import CostModel, length_statistics_from_rows
from .rck import RelativeKey, is_candidate
from .schema import (
    LEFT,
    RIGHT,
    Attribute,
    ComparableLists,
    QualifiedAttribute,
    RelationSchema,
    SchemaPair,
)
from .semantics import (
    EnforcementResult,
    InstancePair,
    enforce,
    is_stable,
    lhs_matches,
    prefer_informative,
    satisfies,
    satisfies_all,
)
from .similarity import EQUALITY, SimilarityOperator, as_operator, operator_universe

__all__ = [
    "EQUALITY",
    "LEFT",
    "RIGHT",
    "Attribute",
    "ClosureEngine",
    "ClosureStats",
    "ComparableLists",
    "CostModel",
    "Explanation",
    "Step",
    "explain",
    "Justification",
    "EnforcementResult",
    "IdentificationAtom",
    "InstancePair",
    "MDSyntaxError",
    "MatchingDependency",
    "QualifiedAttribute",
    "RelationSchema",
    "RelativeKey",
    "SchemaPair",
    "SimilarityAtom",
    "SimilarityMatrix",
    "SimilarityOperator",
    "all_rcks",
    "as_operator",
    "deduces",
    "enforce",
    "equality_md",
    "find_rcks",
    "format_md",
    "is_candidate",
    "is_complete",
    "is_stable",
    "length_statistics_from_rows",
    "lhs_matches",
    "md",
    "minimize",
    "operator_universe",
    "pairing",
    "parse_md",
    "parse_mds",
    "prefer_informative",
    "satisfies",
    "satisfies_all",
    "sort_mds",
    "total_size",
]
