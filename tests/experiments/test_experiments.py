"""Smoke and shape tests for the experiment drivers (scaled down)."""

import pytest

from repro.experiments import exp_blocking, exp_fs, exp_scalability, exp_sn
from repro.experiments.harness import Table, Timer, records_to_table, timed


class TestHarness:
    def test_timed(self):
        result, seconds = timed(lambda x: x + 1, 41)
        assert result == 42
        assert seconds >= 0

    def test_timer_accumulates(self):
        timer = Timer()
        with timer.measure():
            pass
        with timer.measure():
            pass
        assert timer.seconds >= 0

    def test_table_rendering(self):
        table = Table("caption", ["a", "b"])
        table.add(1, 2.5)
        text = table.render()
        assert "caption" in text
        assert "2.500" in text

    def test_table_row_width_validation(self):
        table = Table("c", ["a"])
        with pytest.raises(ValueError):
            table.add(1, 2)

    def test_records_to_table(self):
        table = records_to_table("t", [{"x": 1, "y": 2}])
        assert table.columns == ["x", "y"]
        assert "1" in table.render()

    def test_records_to_table_empty(self):
        assert records_to_table("t", []).rows == []


class TestScalability:
    def test_fig8a_point(self):
        records = exp_scalability.fig8a(
            card_values=[20], y_lengths=[4], m=3, seed=0
        )
        assert len(records) == 1
        assert records[0]["seconds"] >= 0
        assert records[0]["card(Sigma)"] == 20

    def test_fig8b_point(self):
        records = exp_scalability.fig8b(
            m_values=[2, 4], card=20, y_lengths=[4], seed=0
        )
        assert len(records) == 2

    def test_fig8c_counts(self):
        records = exp_scalability.fig8c(
            card_values=[10], y_lengths=[4], seed=0
        )
        assert records[0]["total RCKs"] >= 1

    def test_render(self):
        text = exp_scalability.render_fig8(
            exp_scalability.fig8a([10], [4], m=2),
            exp_scalability.fig8b([2], card=10, y_lengths=[4]),
            exp_scalability.fig8c([10], [4]),
        )
        assert "Fig 8(a)" in text
        assert "Fig 8(c)" in text


class TestMatchingExperiments:
    @pytest.fixture(scope="class")
    def fs_record(self):
        return exp_fs.run_point(300, seed=3)

    @pytest.fixture(scope="class")
    def sn_record(self):
        return exp_sn.run_point(300, seed=3)

    def test_fs_record_fields(self, fs_record):
        for field in (
            "K", "FSrck precision", "FS precision", "FSrck recall",
            "FS recall", "FSrck seconds", "FS seconds", "candidates",
        ):
            assert field in fs_record

    def test_fs_quality_sane(self, fs_record):
        assert 0.5 < fs_record["FSrck precision"] <= 1.0
        assert 0.5 < fs_record["FSrck recall"] <= 1.0

    def test_fs_rck_at_least_baseline_precision(self, fs_record):
        # The paper's headline shape at this scale (same seed, same
        # candidates): the RCK vector must not lose to the naive vector.
        assert (
            fs_record["FSrck precision"] >= fs_record["FS precision"] - 0.02
        )

    def test_sn_record_fields(self, sn_record):
        assert sn_record["K"] == 300
        assert sn_record["candidates"] > 0

    def test_sn_rck_precision_wins(self, sn_record):
        assert sn_record["SNrck precision"] > sn_record["SN precision"]

    def test_sn_rck_faster(self, sn_record):
        # 5 RCK rules vs 25 hand rules: SNrck must compare fewer
        # conditions (Fig. 10(c) shows SNrck consistently faster).
        assert sn_record["SNrck seconds"] < sn_record["SN seconds"]

    def test_render_functions(self, fs_record, sn_record):
        assert "Fellegi-Sunter" in exp_fs.render([fs_record])
        assert "Sorted Neighborhood" in exp_sn.render([sn_record])

    # Exact K=300, seed 3 readings of Exps 2-3: a change that moves one
    # candidate or one match behind Figs. 9-10 fails here.
    def test_exp2_shared_candidates_pinned(self, fs_record):
        assert fs_record["candidates"] == 2205

    def test_exp2_candidates_are_the_union_of_three_passes(self):
        dataset, candidates, rcks = exp_fs.prepare(200, seed=3)
        passes = [
            set(exp_fs.windowing_candidates(dataset, [key])) for key in rcks[:3]
        ]
        assert candidates == sorted(set.union(*passes))
        assert all(len(one) < len(candidates) for one in passes)

    def test_exp3_quality_pinned(self, sn_record):
        assert sn_record["candidates"] == 2205
        assert sn_record["SN precision"] == 0.9036144578313253
        assert sn_record["SN recall"] == 1.0
        assert sn_record["SNrck precision"] == 1.0
        assert sn_record["SNrck recall"] == 0.96


class TestBlockingExperiment:
    @pytest.fixture(scope="class")
    def record(self):
        return exp_blocking.run_point(300, seed=3, mode="blocking")

    def test_fields(self, record):
        assert record["mode"] == "blocking"
        assert 0 <= record["RCK PC"] <= 1
        assert 0 <= record["manual RR"] <= 1

    def test_rck_key_at_least_as_complete(self, record):
        assert record["RCK PC"] >= record["manual PC"] - 0.05

    def test_windowing_mode(self):
        # Exp-4's global-window candidates at K=300, seed 3, exactly.
        record = exp_blocking.run_point(300, seed=3, mode="windowing")
        assert record["mode"] == "windowing"
        assert record["RCK candidates"] == 943
        assert record["manual candidates"] == 927
        assert record["RCK PC"] == 0.97
        assert record["manual PC"] == 0.9533333333333334

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            exp_blocking.run_point(200, seed=3, mode="nope")

    def test_render(self, record):
        assert "pairs completeness" in exp_blocking.render([record])
