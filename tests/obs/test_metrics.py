"""Metrics registry unit tests: percentile math, merge, rendering."""

from __future__ import annotations

import math
import random
import sys
import threading
from collections import Counter

import pytest

from repro.obs import Histogram, MetricsRegistry, percentile
from repro.obs.metrics import _FOLD_EVERY, EXACT_CAP, _bucket


class TestPercentile:
    def test_exact_on_0_to_100(self):
        """With values 0..100, pN is exactly N (rank lands on a value)."""
        values = list(range(101))
        assert percentile(values, 50.0) == 50.0
        assert percentile(values, 95.0) == 95.0
        assert percentile(values, 99.0) == 99.0
        assert percentile(values, 0.0) == 0.0
        assert percentile(values, 100.0) == 100.0

    def test_linear_interpolation_between_ranks(self):
        # rank = (q/100) * (n-1); p50 of [1, 2, 3, 4] sits at rank 1.5.
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
        assert percentile([1.0, 2.0, 3.0, 4.0], 25.0) == 1.75

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0

    def test_single_value(self):
        assert percentile([7.0], 99.0) == 7.0

    def test_empty_and_out_of_range_raise(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)
        with pytest.raises(ValueError):
            percentile([1.0], -1.0)


class TestHistogram:
    def test_summary_keys(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["mean"] == 2.5
        assert summary["p50"] == 2.5
        assert set(summary) == {
            "count", "min", "max", "mean", "p50", "p95", "p99"
        }

    def test_empty_summary(self):
        assert Histogram().summary() == {"count": 0}

    def test_summaries_interleaved_with_observations_sort_in_place(self):
        """Each summary equals the :func:`percentile` reference over
        everything observed so far, and leaves ``values`` sorted — so the
        next summary sorts only what was observed since."""
        shuffled = [float(value) for value in range(500)]
        random.Random(7).shuffle(shuffled)
        histogram = Histogram()
        seen = []
        for start in range(0, len(shuffled), 37):
            for value in shuffled[start:start + 37]:
                histogram.observe(value)
                seen.append(value)
            summary = histogram.summary()
            assert histogram.values == sorted(seen)
            assert summary == {
                "count": len(seen),
                "min": min(seen),
                "max": max(seen),
                "mean": pytest.approx(sum(seen) / len(seen)),
                "p50": percentile(seen, 50.0),
                "p95": percentile(seen, 95.0),
                "p99": percentile(seen, 99.0),
            }
            assert histogram.percentile(25.0) == percentile(seen, 25.0)

    def test_an_observation_racing_a_summary_waits_for_it(self):
        """Another thread observing right after a summary's in-place sort
        cannot land an unsorted value under the summary's reads: it waits,
        and the summary is exact over what was there."""
        histogram = Histogram()
        racer = threading.Thread(target=histogram.observe, args=(-1.0,))

        class ObservedRightAfterSort(list):
            def sort(self, *args, **kwargs):
                super().sort(*args, **kwargs)
                if racer.ident is None:  # the first sort only
                    racer.start()
                    racer.join(timeout=0.05)

        histogram.values = ObservedRightAfterSort([3.0, 1.0, 2.0])
        assert histogram.summary() == {
            "count": 3, "min": 1.0, "max": 3.0, "mean": 2.0,
            "p50": 2.0, "p95": percentile([1.0, 2.0, 3.0], 95.0),
            "p99": percentile([1.0, 2.0, 3.0], 99.0),
        }
        racer.join(timeout=10)
        assert histogram.percentile(0.0) == -1.0

    def test_summaries_racing_observers_stay_exact(self):
        """``/metrics`` summarises (and so sorts) a histogram in one thread
        while the engine observes into it in another: every summary is
        ordered and its max is the largest value observed when it was
        taken, no observation is lost and no sort fails."""
        histogram = Histogram()
        errors = []
        # Each observer's values rise; ``started[n]`` is raised before an
        # observation and ``finished[n]`` after it, so a summary's max lies
        # between the largest finished before it and the largest started
        # after it.
        started = [-1.0] * 8
        finished = [-1.0] * 8

        def observe(offset):
            for value in range(2000):
                value = float(value * 8 + offset)
                started[offset] = value
                histogram.observe(value)
                finished[offset] = value

        def summarise():
            try:
                for _ in range(200):
                    floor = max(finished)
                    summary = histogram.summary()
                    ceiling = max(started)
                    if summary["count"] == 0:
                        continue
                    assert (
                        summary["min"] <= summary["p50"] <= summary["p95"]
                        <= summary["p99"] <= summary["max"]
                    ), summary
                    assert summary["min"] <= summary["mean"] <= summary["max"], summary
                    assert floor <= summary["max"] <= ceiling, (floor, summary, ceiling)
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=observe, args=(n,)) for n in range(8)]
            threads += [threading.Thread(target=summarise) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert histogram.summary()["count"] == 16000
        assert histogram.values == [float(value) for value in range(16000)]


    def test_summaries_up_to_the_cap_are_exact_and_the_next_observation_folds(self):
        """Up to :data:`EXACT_CAP` observations a summary is the exact one
        — the mean summed over the sorted values, as it always was — and
        the observation past the cap trades the values for buckets."""
        rng = random.Random(7)
        seen = [rng.expovariate(1.0) for _ in range(EXACT_CAP)]
        histogram = Histogram()
        for value in seen:
            histogram.observe(value)
        ordered = sorted(seen)
        assert histogram.summary() == {
            "count": EXACT_CAP,
            "min": ordered[0],
            "max": ordered[-1],
            "mean": sum(ordered) / EXACT_CAP,
            "p50": percentile(seen, 50.0),
            "p95": percentile(seen, 95.0),
            "p99": percentile(seen, 99.0),
        }
        assert histogram.buckets is None
        histogram.observe(1.0)
        assert histogram.values == [] and histogram.count == EXACT_CAP + 1
        assert sum(histogram.buckets.values()) == EXACT_CAP + 1

    def test_a_million_observations_hold_at_most_the_cap(self):
        """A long-running service observes without end: past the cap the
        histogram holds buckets, not values — at most 128 a power of two
        its magnitudes span — with count, min, max and mean exact and
        every percentile within 1/256 of the exact one."""
        rng = random.Random(7)
        seen = [rng.lognormvariate(-6.0, 1.5) for _ in range(10**6)]
        histogram = Histogram()
        for value in seen:
            histogram.observe(value)
        assert len(histogram.values) <= EXACT_CAP
        binades = math.frexp(max(seen))[1] - math.frexp(min(seen))[1] + 1
        assert len(histogram.buckets) <= 128 * binades
        summary = histogram.summary()
        assert (summary["count"], summary["min"], summary["max"]) == (
            10**6, min(seen), max(seen)
        )
        assert summary["mean"] == pytest.approx(math.fsum(seen) / 10**6, rel=1e-9)
        for q in (0.0, 1.0, 25.0, 50.0, 95.0, 99.0, 99.9, 100.0):
            exact = percentile(seen, q)
            assert abs(histogram.percentile(q) - exact) <= exact / 256, q
            if q in (50.0, 95.0, 99.0):
                assert summary[f"p{q:g}"] == histogram.percentile(q)

    def test_buckets_keep_the_order_of_signs_zero_and_infinities(self):
        histogram = Histogram()
        seen = [-math.inf, -1e300, -2.5, -1e-300, 0.0, 5e-324, 3.0, 1e300, math.inf]
        for value in seen * (EXACT_CAP // len(seen) + 1):
            histogram.observe(value)
        assert histogram.buckets is not None
        # Each value fills ``share`` adjacent ranks: read the middle one.
        share, ranks = histogram.count // len(seen), histogram.count - 1
        estimates = [
            histogram.percentile(100.0 * (k * share + share // 2) / ranks)
            for k in range(len(seen))
        ]
        assert estimates[0] == -math.inf and estimates[-1] == math.inf
        assert estimates[4] == 0.0
        for estimate, value in zip(estimates[1:-1], seen[1:-1]):
            assert abs(estimate - value) <= abs(value) / 256


    def test_past_the_cap_every_observation_lands_in_its_bucket(self):
        """A fold counts an observation where ``_bucket`` puts it, from its
        bits or one by one: over folds of positive normal magnitudes, of
        those with infinities and NaN, of small ones with subnormals,
        and of a sweep of zeros, both signs, subnormals, bucket edges from
        either side and the largest floats."""
        edges = [
            math.ldexp(0.5 + sub / 256, exponent)
            for exponent in (-1073, -1022, -1021, -1, 0, 1, 60, 1023, 1024)
            for sub in (0, 1, 127)
        ]
        near = [
            math.nextafter(edge, direction)
            for edge in edges
            for direction in (0.0, math.inf)
        ]
        sweep = [
            0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
            sys.float_info.max, -sys.float_info.max, math.inf, -math.inf, math.nan,
            1, 3, 0.37, 0.5, 1e300, -2.5, -1e-300,
            *edges, *near, *(-value for value in edges + near),
        ]
        # Positive normal magnitudes whose folds' sums stay finite.
        normal = [value for value in sweep if sys.float_info.min <= value < 2.0**1000]
        rng = random.Random(7)
        stream = (
            [0.5] * (EXACT_CAP + 1)
            + rng.choices(normal, k=2 * _FOLD_EVERY)
            + rng.choices(normal + [math.inf, math.nan], k=2 * _FOLD_EVERY)
            + rng.choices([value for value in sweep if 0 < value < 1], k=2 * _FOLD_EVERY)
            + rng.choices(sweep, k=2 * _FOLD_EVERY)
        )
        histogram = Histogram()
        for value in stream:
            histogram.observe(value)
        assert 0 < len(histogram.values) <= _FOLD_EVERY
        summary = histogram.summary()  # folds the rest
        assert histogram.values == []
        assert histogram.buckets == Counter(map(_bucket, stream))
        assert (summary["count"], summary["min"], summary["max"]) == (
            len(stream), -math.inf, math.inf
        )


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.count("chases")
        registry.count("chases", 2)
        registry.gauge("rows", 10)
        registry.gauge("rows", 12)  # last write wins
        for value in range(101):
            registry.observe("seconds", float(value))
        rendered = registry.as_dict()
        assert rendered["counters"] == {"chases": 3}
        assert rendered["gauges"] == {"rows": 12}
        summary = rendered["histograms"]["seconds"]
        assert summary["count"] == 101
        assert summary["p50"] == 50.0
        assert summary["p95"] == 95.0
        assert summary["p99"] == 99.0
