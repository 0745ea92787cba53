"""A small metrics registry: counters, gauges, and percentile histograms.

This unifies the ad-hoc counter structs scattered through the stack
(``PlanStats``, the store's ``comparisons``/``merges`` fields) behind
one render path: counters accumulate, gauges record the latest value,
histograms keep raw observations and summarize to count/min/max/mean and
p50/p95/p99.  :meth:`MetricsRegistry.as_dict` is the single JSON shape
every consumer sees — ``MatchReport.stats`` and the trace file's
``metrics`` section both render through it.

Percentiles use linear interpolation between closest ranks (the same
definition as ``numpy.percentile``'s default): for sorted observations
``x[0..n-1]``, the ``q``-th percentile sits at rank ``q/100 * (n-1)``,
interpolating between the neighboring observations.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence

#: The percentiles every histogram summary reports.
SUMMARY_PERCENTILES = (50.0, 95.0, 99.0)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` by linear interpolation.

    >>> percentile(range(101), 95)
    95.0
    """
    return _sorted_percentile(sorted(values), q)


def _sorted_percentile(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` of observations already in ascending order."""
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    rank = (q / 100.0) * (len(ordered) - 1)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return float(ordered[int(rank)])
    fraction = rank - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


class Histogram:
    """Raw observations with a percentile summary.

    Runs here are bounded (one process, one workload), so the histogram
    keeps every observation exactly rather than approximating with
    buckets — percentiles are then exact by construction.  A summary
    sorts ``values`` in place, once: the next one re-sorts a sorted
    prefix plus what was observed since, which costs only the new
    observations (a service renders its metrics into every report).  A
    service also summarises in one thread while the engine observes in
    another, so observing and summarising hold the histogram's lock: no
    observation lands unsorted between a summary's sort and its reads.
    """

    __slots__ = ("values", "_lock")

    def __init__(self) -> None:
        self.values: List[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    def percentile(self, q: float) -> float:
        with self._lock:
            self.values.sort()
            return _sorted_percentile(self.values, q)

    def summary(self) -> Dict[str, float]:
        """count/min/max/mean plus p50/p95/p99, JSON-ready."""
        with self._lock:
            ordered = self.values
            if not ordered:
                return {"count": 0}
            ordered.sort()
            out: Dict[str, float] = {
                "count": len(ordered),
                "min": ordered[0],
                "max": ordered[-1],
                "mean": sum(ordered) / len(ordered),
            }
            for q in SUMMARY_PERCENTILES:
                out[f"p{q:g}"] = _sorted_percentile(ordered, q)
        return out


class MetricsRegistry:
    """Counters, gauges, and histograms under dotted string names."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- recording -----------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a monotonically accumulating counter."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Record the latest value of a point-in-time quantity."""
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Add one observation to a histogram (created on first use)."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    def histogram(self, name: str) -> Optional[Histogram]:
        """The named histogram, or ``None`` when nothing was observed."""
        return self.histograms.get(name)

    # -- rendering -----------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """The canonical JSON shape: counters, gauges, histogram summaries."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(self.histograms.items())
            },
        }
