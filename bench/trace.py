"""Benchmark-side spans: the traced pass records from outside the program.

A :class:`Recorder` keeps every span in memory — name, start, end, the
span that caused it, and the workload it belongs to — and writes nothing
until the benchmark ends (``--out``).  Spans come from three places:

* ``with recorder.span(name)`` around a call into a layer, in the
  benchmark's own code;
* :meth:`Recorder.wrap`, which times a *nested* public callable (one the
  program calls itself, e.g. ``plan.enforce`` inside ``Workspace.match``)
  by shadowing the attribute for the length of a ``with`` block;
* :meth:`Recorder.adopt`, which files the span trees the program already
  emits under ``observability.enabled`` beneath the current span.

A layer's *self time* is its spans' duration minus the part their child
spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Recorder:
    """In-memory span log for one workload's traced pass."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    def _open(self, name: str, start: float) -> int:
        span_id = len(self.spans)
        self.spans.append({
            "id": span_id,
            "name": name,
            "start": start,
            "end": start,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
        })
        return span_id

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, object]]:
        span_id = self._open(name, time.perf_counter())
        self._stack.append(span_id)
        try:
            yield self.spans[span_id]
        finally:
            self.spans[span_id]["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def wrap(self, owner: object, attribute: str, name: str) -> Iterator[None]:
        """Record a span per call of ``owner.attribute`` inside the block."""
        original = getattr(owner, attribute)
        shadowed = attribute in vars(owner)

        def timed(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attribute, timed)
        try:
            yield
        finally:
            if shadowed:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def adopt(self, roots, prefix: str = "repro:") -> None:
        """File program-emitted span trees (``repro.obs`` spans share the
        ``perf_counter`` clock) under the innermost recorded span that
        contains each root in time."""

        def file(span, parent: Optional[int]) -> None:
            span_id = self._open(prefix + span.name, span.start)
            record = self.spans[span_id]
            record["end"] = span.start + span.duration
            record["parent"] = parent
            for child in span.children:
                file(child, span_id)

        own = list(self.spans)
        for root in roots:
            end = root.start + root.duration
            holders = [
                s for s in own if s["start"] <= root.start and end <= s["end"]
            ]
            innermost = min(
                holders, key=lambda s: s["end"] - s["start"], default=None
            )
            file(root, innermost["id"] if innermost else None)

    # -- reading -------------------------------------------------------

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus their direct children."""
        covered: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] = covered.get(s["parent"], 0.0) + (s["end"] - s["start"])
        return sum(
            (s["end"] - s["start"]) - covered.get(s["id"], 0.0)
            for s in self.spans
            if s["name"] == name
        )
