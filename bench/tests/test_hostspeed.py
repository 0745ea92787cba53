"""The arithmetic of the host-speed compensation — never timing."""

from __future__ import annotations

import pytest

from bench.common import segment_percentile
from bench.hostspeed import CAP, MIN_SAMPLES, REFERENCE_UNIT_S, AsMeasured, Timeline


def _timeline(took, spacing=0.01):
    timeline = Timeline()
    timeline.began = [index * spacing for index in range(len(took))]
    timeline.took = list(took)
    return timeline


def test_slowdown_is_the_mean_unit_time_over_the_reference():
    took = [REFERENCE_UNIT_S] * 50 + [1.5 * REFERENCE_UNIT_S] * 50
    timeline = _timeline(took)
    assert timeline.slowdown(0.0, 0.495) == pytest.approx(1.0)
    assert timeline.slowdown(0.5, 1.0) == pytest.approx(1.5)
    # Slow for half of the interval: the work loses half of the difference.
    assert timeline.slowdown(0.0, 1.0) == pytest.approx(1.25)


def test_a_descheduled_unit_counts_for_at_most_cap_medians():
    took = [REFERENCE_UNIT_S] * 99 + [40 * REFERENCE_UNIT_S]
    expected = (99 + CAP) / 100
    assert _timeline(took).slowdown(0.0, 1.0) == pytest.approx(expected)


def test_a_short_interval_is_widened_to_min_samples():
    took = [REFERENCE_UNIT_S] * 100
    took[50] = 1.5 * REFERENCE_UNIT_S
    timeline = _timeline(took)
    # The interval holds one sample; its neighbours are drawn in.
    expected = (MIN_SAMPLES - 1 + 1.5) / MIN_SAMPLES
    assert timeline.slowdown(0.4995, 0.5005) == pytest.approx(expected, rel=0.05)
    assert timeline.slowdown_at(0.5, width=0.001) == timeline.slowdown(0.4995, 0.5005)


def test_tick_appends_a_sample_and_reports_its_cost():
    timeline = Timeline()
    used = timeline.tick(2)
    assert len(timeline.began) == len(timeline.took) == 2
    assert used >= sum(timeline.took) > 0.0


def test_as_measured_divides_by_one():
    assert AsMeasured.slowdown(0.0, 1.0) == 1.0 == AsMeasured.slowdown_at(0.5)


def test_segment_percentile_ignores_a_stall_in_one_segment():
    calm = [float(value) for value in range(100)]
    stalled = calm[:90] + [1000.0] * 10
    assert segment_percentile([calm, stalled, calm], 95) == pytest.approx(94.05)
    assert segment_percentile([calm], 50) == pytest.approx(49.5)
