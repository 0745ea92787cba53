"""A small metrics registry: counters, gauges, and percentile histograms.

This unifies the ad-hoc counter structs scattered through the stack
(``PlanStats``, the store's ``comparisons``/``merges`` fields) behind
one render path: counters accumulate, gauges record the latest value,
histograms keep raw observations — up to :data:`EXACT_CAP` of them, then
log buckets — and summarize to count/min/max/mean and p50/p95/p99.
:meth:`MetricsRegistry.as_dict` is the single JSON shape every consumer
sees — ``MatchReport.stats`` and the trace file's
``metrics`` section both render through it.

Percentiles use linear interpolation between closest ranks (the same
definition as ``numpy.percentile``'s default): for sorted observations
``x[0..n-1]``, the ``q``-th percentile sits at rank ``q/100 * (n-1)``,
interpolating between the neighboring observations.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from collections import Counter
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence

#: The percentiles every histogram summary reports.
SUMMARY_PERCENTILES = (50.0, 95.0, 99.0)

#: The observations a :class:`Histogram` keeps one by one (about 2 MB of
#: floats); its percentiles are exact up to this many.  A batch run and
#: the benchmark's workloads observe far fewer per histogram.
EXACT_CAP = 1 << 16

#: Past the cap, buckets per binade (``[2**(e-1), 2**e)``): a bucket is at
#: most 1/128 of its smallest magnitude wide, so its middle is within
#: ``1 / (2 * 128)`` (0.4 %) of every magnitude in it.
_SUB_BUCKETS = 128
#: Added to a magnitude's bucket index so that every finite one is
#: positive (``frexp`` exponents reach down to -1073 for subnormals).
_BIAS = 1074 * _SUB_BUCKETS
#: The bucket of an infinite magnitude (and of NaN): above every finite one.
_TOP = 2100 * _SUB_BUCKETS
#: Past the cap, the observations kept between folds.
_FOLD_EVERY = 1024


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` by linear interpolation.

    >>> percentile(range(101), 95)
    95.0
    """
    return _sorted_percentile(sorted(values), q)


def _sorted_percentile(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` of observations already in ascending order."""
    return _ranked_percentile(ordered.__getitem__, len(ordered), q)


def _ranked_percentile(at: Callable[[int], float], count: int, q: float) -> float:
    """The ``q``-th percentile of ``count`` observations, ``at(k)`` the
    ``k``-th smallest (from 0), interpolated as :func:`percentile`."""
    if not count:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    rank = (q / 100.0) * (count - 1)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return float(at(int(rank)))
    fraction = rank - lower
    return at(lower) * (1.0 - fraction) + at(upper) * fraction


def _bucket(value: float) -> int:
    """The log bucket of ``value``: ordered as the values are, 0 for zero,
    a negative value's the negation of its magnitude's."""
    magnitude = abs(value)
    if not magnitude < math.inf:
        bucket = _TOP
    elif not magnitude:
        return 0
    else:
        mantissa, exponent = math.frexp(magnitude)  # mantissa in [0.5, 1)
        bucket = _BIAS + exponent * _SUB_BUCKETS + int((mantissa - 0.5) * 2 * _SUB_BUCKETS)
    return -bucket if value < 0 else bucket


def _middle(bucket: int) -> float:
    """The middle of a bucket's values (an infinity for the top ones)."""
    magnitude = abs(bucket)
    if not magnitude:
        return 0.0
    if magnitude == _TOP:
        return math.copysign(math.inf, bucket)
    exponent, sub = divmod(magnitude - _BIAS, _SUB_BUCKETS)
    middle = math.ldexp(0.5 + (sub + 0.5) / (2 * _SUB_BUCKETS), exponent)
    return math.copysign(middle, bucket)


class Histogram:
    """Observations with a percentile summary, in bounded memory.

    Up to :data:`EXACT_CAP` observations the histogram keeps each one
    (``values``) and its percentiles are exact.  A summary sorts
    ``values`` in place, once: the next one re-sorts a sorted prefix plus
    what was observed since, which costs only the new observations (a
    service renders its metrics into every report).

    A long-running service observes without end, so the observation past
    the cap folds them all into log buckets (``buckets``: bucket ->
    observations in it, :data:`_SUB_BUCKETS` a binade) and ``values``
    empties.  From then on ``values`` keeps at most :data:`_FOLD_EVERY`
    observations, folded when it fills or a summary reads, so an
    observation costs what it does below the cap plus its share of a
    fold.  Count, min, max and mean stay exact (a running sum), and a
    percentile reads the middle of the bucket holding each rank it
    interpolates, clamped to ``[min, max]``: within 1/256 (0.4 %) of the
    exact percentile for observations of one sign.  The buckets
    grow with the range of magnitudes seen, not their number (at most
    128 per power of two; a NaN counts at the top).

    A service also summarises in one thread while the engine observes in
    another, so observing and summarising hold the histogram's lock: no
    observation lands unsorted between a summary's sort and its reads.
    """

    __slots__ = (
        "values", "buckets", "_limit", "_count", "_total", "_low", "_high", "_lock",
    )

    def __init__(self) -> None:
        self.values: List[float] = []
        #: The observations ``values`` holds before they fold.
        self._limit = EXACT_CAP
        #: Past the cap, bucket -> folded observations in it; ``None`` before.
        self.buckets: Optional[Counter[int]] = None
        #: Past the cap: the count, sum, min and max of the folded observations.
        self._count, self._total, self._low, self._high = 0, 0.0, math.inf, -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            values = self.values
            values.append(float(value))
            if len(values) > self._limit:
                self._fold()

    def _fold(self) -> None:
        """Add the kept observations to the buckets, count, sum, min and
        max (lock held); ``values`` empties."""
        values = self.values
        if not values:
            return
        if self.buckets is None:
            self.buckets = Counter()
        self.buckets.update(map(_bucket, values))
        self._count += len(values)
        self._total += sum(values)
        self._low = min(self._low, *values)
        self._high = max(self._high, *values)
        self.values = []
        self._limit = _FOLD_EVERY

    @property
    def count(self) -> int:
        return self._count + len(self.values)

    def percentile(self, q: float) -> float:
        with self._lock:
            if self.buckets is not None:
                self._fold()
                return self._bucket_percentile(q)
            self.values.sort()
            return _sorted_percentile(self.values, q)

    def _bucket_percentile(self, q: float) -> float:
        buckets, low, high = self.buckets, self._low, self._high
        ordered = sorted(buckets)
        ends = list(accumulate(map(buckets.__getitem__, ordered)))

        def at(rank: int) -> float:
            return min(max(_middle(ordered[bisect_right(ends, rank)]), low), high)

        return _ranked_percentile(at, self._count, q)

    def summary(self) -> Dict[str, float]:
        """count/min/max/mean plus p50/p95/p99, JSON-ready."""
        with self._lock:
            if self.buckets is not None:
                self._fold()
                out: Dict[str, float] = {
                    "count": self._count,
                    "min": self._low,
                    "max": self._high,
                    "mean": self._total / self._count,
                }
                for q in SUMMARY_PERCENTILES:
                    out[f"p{q:g}"] = self._bucket_percentile(q)
                return out
            ordered = self.values
            if not ordered:
                return {"count": 0}
            ordered.sort()
            out = {
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
