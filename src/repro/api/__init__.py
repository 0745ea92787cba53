"""The declarative front door: spec in, any execution strategy out.

``repro.api`` is the one entry point users write against:

* :class:`~repro.api.spec.ResolutionSpec` — a versioned, serializable
  document covering schema pair, target lists, MD/RCK text, metric
  bindings, blocking backend and parameters, value-choice policy, and
  execution options, with full parse → validate → serialize round trip;
* :class:`~repro.api.spec.SpecBuilder` — the same document, fluently;
* :class:`~repro.api.workspace.Workspace` — the façade that compiles the
  spec through the :mod:`repro.plan` kernel exactly once and executes it
  in batch (``match``/``enforce``) or streaming (``stream``) mode;
* :class:`~repro.api.report.MatchReport` — the unified result object
  (pairs, clusters, per-rule provenance — views over the positions the
  chase matched — plan stats, spec fingerprint).

Typical use::

    from repro import Workspace

    workspace = Workspace.from_file("examples/spec.json")
    report = workspace.match(credit, billing)
    print(report.clusters, report.stats["metric_evaluations"])

    matcher = workspace.stream()        # same compiled plan, streaming
    matcher.ingest_stream(events)
"""

from .spec import (
    BLOCKING_BACKENDS,
    EXECUTION_MODES,
    PERSISTENCE_BACKENDS,
    SPEC_VERSION,
    VALUE_POLICIES,
    ResolutionSpec,
    SpecBuilder,
    SpecError,
)
from .workspace import MatchReport, Workspace

__all__ = [
    "BLOCKING_BACKENDS",
    "EXECUTION_MODES",
    "MatchReport",
    "PERSISTENCE_BACKENDS",
    "ResolutionSpec",
    "SPEC_VERSION",
    "SpecBuilder",
    "SpecError",
    "VALUE_POLICIES",
    "Workspace",
]
