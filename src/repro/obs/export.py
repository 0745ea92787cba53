"""Trace exporters: Chrome ``trace_event`` JSON and a text summary.

The on-disk trace is one JSON document in the Chrome trace *object*
format, directly loadable in ``about:tracing`` or https://ui.perfetto.dev
(both ignore unknown top-level keys), carrying three sections:

* ``traceEvents`` — one complete (``"ph": "X"``) event per span, with
  microsecond timestamps re-based to the earliest span, all on one
  named thread row (``main``);
* ``manifest`` — the run manifest: spec fingerprint, execution mode,
  command line, platform — everything needed to say *what* run this
  trace observed (see :func:`run_manifest`);
* ``metrics`` — the :class:`~repro.obs.metrics.MetricsRegistry` render
  of the run's counters/gauges/histograms.

:func:`summarize_trace` aggregates a document back into a per-span-name
text table plus a line each on how the chase rounds selected — joined or
scanned — how many grown classes resolve-merged resolved or skipped as
uniform, and how the stability check split fired pairs into fresh and
re-evaluated (``repro trace summarize``); :func:`validate_trace` is the
structural schema check CI runs on smoke traces.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from .metrics import MetricsRegistry
from .trace import Span, Tracer


def run_manifest(**fields) -> Dict[str, object]:
    """A run manifest: environment stamp plus caller-supplied fields.

    Callers layer in what identifies the run — the workspace adds the
    spec fingerprint/mode/policy, the CLI adds its argv and data files.
    """
    # Imported here: only a traced run writes a manifest.
    import platform

    manifest: Dict[str, object] = {
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": sys.platform,
    }
    manifest.update(fields)
    return manifest


def _span_events(
    span: Span, origin: float, events: List[Dict[str, object]]
) -> None:
    events.append(
        {
            "name": span.name,
            "cat": "repro",
            "ph": "X",
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "pid": 1,
            "tid": 0,
            "args": dict(span.attrs),
        }
    )
    for child in span.children:
        _span_events(child, origin, events)


def trace_document(
    tracer: Tracer,
    manifest: Optional[Dict[str, object]] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, object]:
    """The Chrome-loadable trace document for a tracer's spans."""
    roots = tracer.spans()
    origin = min((span.start for span in roots), default=0.0)
    events: List[Dict[str, object]] = []
    for root in roots:
        _span_events(root, origin, events)
    events.append(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "main"},
        }
    )
    return {
        "displayTimeUnit": "ms",
        "manifest": manifest or run_manifest(),
        "metrics": metrics.as_dict() if metrics is not None else None,
        "traceEvents": events,
    }


def write_trace(
    tracer: Tracer,
    path,
    manifest: Optional[Dict[str, object]] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, object]:
    """Write the Chrome trace document to ``path`` and return it."""
    document = trace_document(tracer, manifest=manifest, metrics=metrics)
    Path(path).write_text(
        json.dumps(document, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )
    return document


def read_trace(path) -> Dict[str, object]:
    """Read a trace file back into its document (:func:`validate_trace`
    says whether it is one)."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: invalid JSON ({error})") from None


def validate_trace(document: object) -> List[str]:
    """Structural problems with a trace document (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return [f"expected a JSON object, got {type(document).__name__}"]
    manifest = document.get("manifest")
    if not isinstance(manifest, dict):
        problems.append("missing 'manifest' object")
    elif "spec_fingerprint" not in manifest:
        problems.append("manifest: missing 'spec_fingerprint'")
    events = document.get("traceEvents")
    if not isinstance(events, list) or not events:
        problems.append("'traceEvents' must be a non-empty list")
        return problems
    spans = 0
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"traceEvents[{index}]: not an object")
            continue
        if event.get("ph") == "M":
            continue
        spans += 1
        for key, kind in (
            ("name", str), ("ph", str), ("ts", (int, float)),
            ("dur", (int, float)), ("pid", int), ("tid", int),
        ):
            if not isinstance(event.get(key), kind):
                problems.append(
                    f"traceEvents[{index}]: missing or mistyped {key!r}"
                )
    if spans == 0:
        problems.append("no span events (only metadata) in 'traceEvents'")
    metrics = document.get("metrics")
    if metrics is not None:
        if not isinstance(metrics, dict):
            problems.append("'metrics' must be an object or null")
        else:
            for section in ("counters", "gauges", "histograms"):
                if not isinstance(metrics.get(section), dict):
                    problems.append(f"metrics: missing '{section}' object")
    return problems


def summarize_trace(document: Dict[str, object]) -> str:
    """A per-span-name aggregate table of one trace document."""
    events = [
        event
        for event in document.get("traceEvents", [])
        if isinstance(event, dict) and event.get("ph") == "X"
    ]
    manifest = document.get("manifest") or {}
    lines = []
    if manifest:
        rendered = ", ".join(
            f"{key}={manifest[key]}"
            for key in ("spec_fingerprint", "mode", "created_at")
            if key in manifest
        )
        lines.append(f"# trace manifest: {rendered or manifest}")
    by_name: Dict[str, List[float]] = {}
    for event in events:
        by_name.setdefault(str(event["name"]), []).append(
            float(event["dur"]) / 1e3
        )
    header = f"{'span':<24} {'count':>6} {'total_ms':>10} {'mean_ms':>9} {'max_ms':>9}"
    lines.append(header)
    lines.append("-" * len(header))
    for name, durations in sorted(
        by_name.items(), key=lambda item: -sum(item[1])
    ):
        lines.append(
            f"{name:<24} {len(durations):>6} {sum(durations):>10.3f} "
            f"{sum(durations) / len(durations):>9.3f} {max(durations):>9.3f}"
        )
    def args(name):
        return [event.get("args") or {} for event in events if event["name"] == name]

    def totals(spans, *keys):
        return [sum(int(attrs.get(key, 0)) for attrs in spans) for key in keys]

    kernel = []
    rounds = args("chase-round")
    if rounds:
        # How the rounds selected: equality atoms served by a hash join
        # (and what the joins probed) against pairs read by scanning.
        joined, probes, scanned = totals(rounds, "joined", "join_probes", "scanned")
        kernel.append(
            f"selection over {len(rounds)} chase round(s): {joined} rule(s) "
            f"joined ({probes} probes), {scanned} pair(s) scanned"
        )
        # One union per (pair, RHS group), against the cell merges they
        # made (a group union merges one cell per RHS pair of the group).
        attempts, merges = totals(rounds, "union_attempts", "merges")
        kernel.append(
            f"unions over {len(rounds)} chase round(s): {attempts} group "
            f"union(s) attempted, {merges} cell merge(s)"
        )
    resolves = args("resolve-merged")
    if resolves:
        # Grown classes resolved, against those whose members agreed.
        classes, uniform = totals(resolves, "classes", "uniform")
        kernel.append(
            f"resolve-merged over {len(resolves)} round(s): {classes} "
            f"class(es) resolved, {uniform} uniform skipped"
        )
    checks = args("stability-check")
    if checks:
        # Fired pairs that hold unevaluated, pairs selected again, and the
        # RHS test of the checks whose ``stable`` was read.
        fresh, reevaluated = totals(checks, "fresh", "reevaluated")
        tested = [attrs for attrs in checks if "rhs_tested" in attrs]
        kernel.append(
            f"stability over {len(checks)} check(s): {fresh} fired pair(s) "
            f"fresh, {reevaluated} re-evaluated; RHS test run in {len(tested)} "
            f"({totals(tested, 'rhs_tested')[0]} pair(s))"
        )
    if kernel:
        lines.append("")
        lines.extend(kernel)
    # The phases that recorded the resident-memory high-water mark at
    # their close, in time order: the first to read the highest value is
    # the one the peak was reached in (or before, if outside every one).
    peaks = sorted(
        (float(event.get("ts", 0.0)), str(event["name"]), float(attrs["peak_rss_mb"]))
        for event in events
        if isinstance(attrs := event.get("args"), dict) and "peak_rss_mb" in attrs
    )
    if peaks:
        highest = max(peak for _, _, peak in peaks)
        reached = next(name for _, name, peak in peaks if peak == highest)
        lines.append("")
        lines.append(
            "peak RSS at close: "
            + ", ".join(f"{name} {peak:.2f} MB" for _, name, peak in peaks)
            + f" (the peak was reached by the close of {reached})"
        )
    metrics = document.get("metrics")
    if isinstance(metrics, dict):
        histograms = metrics.get("histograms") or {}
        if histograms:
            lines.append("")
            lines.append(
                f"{'histogram':<28} {'count':>6} {'p50':>10} {'p95':>10} {'p99':>10}"
            )
            for name, summary in sorted(histograms.items()):
                if not summary.get("count"):
                    continue
                lines.append(
                    f"{name:<28} {summary['count']:>6} "
                    f"{summary.get('p50', 0.0):>10.6f} "
                    f"{summary.get('p95', 0.0):>10.6f} "
                    f"{summary.get('p99', 0.0):>10.6f}"
                )
    return "\n".join(lines)
