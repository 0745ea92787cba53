"""repro — a reproduction of *Reasoning about Record Matching Rules*
(Wenfei Fan, Xibei Jia, Jianzhong Li, Shuai Ma — VLDB 2009).

The one front door is :mod:`repro.api`::

    from repro import Workspace

    workspace = Workspace.from_file("spec.json")   # a ResolutionSpec
    report = workspace.match(credit, billing)      # batch
    matcher = workspace.stream()                   # streaming, same plan

Underneath, the library implements the paper's full stack:

* :mod:`repro.api` — ``ResolutionSpec`` (versioned, serializable) and
  the ``Workspace`` façade over every execution strategy;
* :mod:`repro.core` — matching dependencies (MDs), relative candidate
  keys (RCKs), the ``MDClosure`` deduction algorithm, ``findRCKs`` with
  its quality model, and the dynamic semantics / enforcement chase;
* :mod:`repro.plan` — the enforcement kernel: MDs/RCKs compiled once into
  an ``EnforcementPlan`` shared by every execution layer;
* :mod:`repro.metrics` — similarity metrics and the Soundex encoder;
* :mod:`repro.relations` — the in-memory relational substrate;
* :mod:`repro.matching` — clustering and evaluation metrics;
* :mod:`repro.engine` — the incremental streaming entity-resolution
  engine (what ``Workspace.stream()`` returns);
* :mod:`repro.datagen` — the paper's schemas and MDs, synthetic datasets
  with ground truth, and streaming arrival scenarios;
* :mod:`repro.experiments` — one module per figure of Section 6, and
  what only they run: the Fig. 9 Fellegi–Sunter baselines
  (:mod:`repro.experiments.baselines`) and the Section 8 extensions —
  negative rules, MD discovery, synonyms
  (:mod:`repro.experiments.extensions`).

The attributes below are loaded lazily (PEP 562): ``import repro`` stays
cheap, and ``from repro import Workspace`` pulls in only what it needs.
"""

from importlib import import_module

__version__ = "18.0.0"

#: The curated public API: attribute name -> defining module.  Heavy
#: submodules are imported only when one of their names is touched.
_LAZY_ATTRIBUTES = {
    # The declarative front door (repro.api).
    "Workspace": "repro.api",
    "ResolutionSpec": "repro.api",
    "SpecBuilder": "repro.api",
    "SpecError": "repro.api",
    "MatchReport": "repro.api",
    "SPEC_VERSION": "repro.api",
    "VALUE_POLICIES": "repro.api",
    # The enforcement kernel (repro.plan).
    "EnforcementPlan": "repro.plan",
    "PlanStats": "repro.plan",
    "compile_plan": "repro.plan",
    # The streaming engine (repro.engine).
    "IncrementalMatcher": "repro.engine",
    "MatchStore": "repro.engine",
    "SQLiteMatchStore": "repro.engine",
    "save_store": "repro.engine",
    # Core reasoning (repro.core).
    "ComparableLists": "repro.core",
    "MatchingDependency": "repro.core",
    "RelationSchema": "repro.core",
    "RelativeKey": "repro.core",
    "SchemaPair": "repro.core",
    "deduces": "repro.core",
    "find_rcks": "repro.core",
    "format_md": "repro.core",
    "parse_md": "repro.core",
    "parse_mds": "repro.core",
    # The relational substrate (repro.relations).
    "Relation": "repro.relations.relation",
    "load_relation": "repro.relations.csvio",
    "save_relation": "repro.relations.csvio",
}

__all__ = ["__version__", *sorted(_LAZY_ATTRIBUTES)]


def __getattr__(name: str):
    """Resolve a curated attribute on first access (PEP 562)."""
    try:
        module_name = _LAZY_ATTRIBUTES[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro' has no attribute {name!r}; "
            f"the public API is {__all__}"
        ) from None
    value = getattr(import_module(module_name), name)
    globals()[name] = value  # cache: later accesses skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_ATTRIBUTES))
