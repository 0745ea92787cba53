"""Nested-span tracing with a free-when-off null implementation.

The tracing model is deliberately small: a :class:`Tracer` hands out
:class:`Span` context managers; entering a span pushes it on the
tracer's stack (so spans nest lexically), exiting records its
monotonic-clock duration and attaches it to its parent (or to the
tracer's roots).  Spans carry an ``attrs`` dict of counters and
annotations (:meth:`Span.add` / :meth:`Span.set`) and serialize to
plain dicts (:meth:`Span.to_dict`).

**The hot path pays ~nothing when tracing is off**: the module-level
:data:`NULL_TRACER` singleton returns one shared, stateless
:class:`_NullSpan` from every call — no allocation, no clock read, no
stack — so instrumentation can stay unconditionally in place.  The
overhead of those no-op calls is measured (not assumed) by the
wall-clock benchmark, ``python3 -m bench`` (``obs.trace_overhead_frac``).

Everything here is pure standard library; the exporter (Chrome
``trace_event``) lives in :mod:`repro.obs.export`.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Optional, Tuple


def peak_rss_mb() -> Optional[float]:
    """This process's peak resident set size so far, in MB (``ru_maxrss``:
    kilobytes on Linux, bytes on macOS), or ``None`` without the
    ``resource`` module.  Imported here, so only a traced run loads it."""
    try:
        import resource
    except ImportError:  # not a Unix: no getrusage
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024 * 1024 if sys.platform == "darwin" else 1024)


class Span:
    """One timed, attributed node of a trace tree.

    Use as a context manager (the only way the tracer hands spans out):

    >>> tracer = Tracer()
    >>> with tracer.span("compile") as span:
    ...     span.add("rules", 3)
    >>> tracer.roots[0].attrs["rules"]
    3
    """

    __slots__ = ("name", "start", "duration", "attrs", "children", "_tracer")

    def __init__(self, name: str, attrs: Dict[str, object], tracer: "Tracer"):
        self.name = name
        self.start: float = 0.0
        self.duration: float = 0.0
        self.attrs = attrs
        self.children: List["Span"] = []
        self._tracer = tracer

    # -- context management -------------------------------------------

    def __enter__(self) -> "Span":
        self._tracer._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        now = time.perf_counter()
        self.duration = now - self.start
        tracer = self._tracer
        # An exception can unwind past manually-entered child spans
        # without running their ``__exit__``; close the leaked spans on
        # the way out (best-effort durations) so the stack stays sound
        # and the trace keeps what was recorded before the failure.
        while tracer._stack and tracer._stack[-1] is not self:
            leaked = tracer._stack.pop()
            leaked.duration = now - leaked.start
            if tracer._stack:
                tracer._stack[-1].children.append(leaked)
        if tracer._stack:
            tracer._stack.pop()
        if tracer._stack:
            tracer._stack[-1].children.append(self)
        else:
            tracer.roots.append(self)
        return False

    # -- annotations ---------------------------------------------------

    def add(self, key: str, amount: int = 1) -> None:
        """Increment a counter attribute on this span."""
        self.attrs[key] = self.attrs.get(key, 0) + amount

    def set(self, key: str, value: object) -> None:
        """Set an annotation attribute on this span."""
        self.attrs[key] = value

    def set_peak_rss(self) -> None:
        """Record the process's resident-memory high-water mark so far as
        ``peak_rss_mb`` (where the platform reports it): the spans of
        successive phases then show which one set the peak."""
        peak = peak_rss_mb()
        if peak is not None:
            self.attrs["peak_rss_mb"] = round(peak, 2)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """A picklable/JSON-able rendering of this span subtree."""
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def walk(self, depth: int = 0):
        """Yield ``(span, depth)`` over this subtree, pre-order."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, "
            f"{len(self.children)} child(ren))"
        )


class _NullSpan:
    """The shared do-nothing span; every no-op call lands here."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def add(self, key: str, amount: int = 1) -> None:
        pass

    def set(self, key: str, value: object) -> None:
        pass

    def set_peak_rss(self) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing disabled: every call is a constant-time no-op.

    One module-level instance (:data:`NULL_TRACER`) serves every
    untraced plan and workspace, so "tracing off" costs one attribute
    load and one call returning a shared object — no allocation.
    """

    enabled = False
    roots: Tuple[Span, ...] = ()

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def spans(self) -> Tuple[Span, ...]:
        return ()

    def event_count(self) -> int:
        return 0


#: The shared disabled tracer (what every plan starts with).
NULL_TRACER = NullTracer()


class Tracer:
    """Collects nested spans with monotonic wall times.

    Not thread-safe by design: one tracer belongs to one workspace.
    """

    enabled = True

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, **attrs) -> Span:
        """A new span to enter; nests under the currently open span."""
        return Span(name, attrs, self)

    def spans(self) -> Tuple[Span, ...]:
        """The completed root spans, in completion order."""
        return tuple(self.roots)

    def event_count(self) -> int:
        """Total spans recorded (the no-op tracer always reports 0)."""
        return sum(1 for root in self.roots for _ in root.walk())
