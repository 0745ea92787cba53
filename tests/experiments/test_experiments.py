"""Smoke and shape tests for the experiment drivers (scaled down).

The paper's Section 6 results are claims about shape: the orderings
and crossovers of Figs. 8-10, Exp-4's PC/RR and the ablations are
checked here without a clock.  What they cost is measured by
``python3 -m bench``.
"""

import pytest

from repro.api import Workspace
from repro.core.findrcks import find_rcks, pairing
from repro.core.quality import CostModel, length_statistics_from_rows
from repro.datagen.generator import generate_dataset
from repro.datagen.noise import NoiseModel, harsh_noise, light_noise
from repro.datagen.schemas import extended_mds
from repro.discovery import (
    DiscoveryConfig,
    discover_mds,
    random_labelled_pairs,
    sample_labelled_pairs,
)
from repro.experiments import exp_blocking, exp_fs, exp_scalability, exp_sn
from repro.experiments.harness import (
    Table,
    Timer,
    records_to_table,
    resolution_spec_document,
    timed,
)
from repro.matching.evaluate import evaluate_matches, evaluate_reduction
from repro.plan.blocking import attribute_key, window_candidates


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

    @pytest.mark.slow
    def test_fig8c_every_point_has_an_rck(self):
        # Fig. 8(c)'s point on its own axis (~20 s): even a small Σ
        # yields a useful number of RCKs.
        records = exp_scalability.fig8c(
            card_values=(10, 20, 30, 40), y_lengths=(6, 10)
        )
        assert len(records) == 8
        assert all(record["total RCKs"] >= 1 for record in records)

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

    def test_sn_rck_probes_fewer_predicates(self, sn_record):
        # 5 RCK rules vs 25 hand rules: SNrck must compare fewer
        # conditions (Fig. 10(c) shows SNrck consistently faster).
        assert sn_record["SNrck probes"] < sn_record["SN probes"]

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


#: Figs. 9-10 and Exp-4 at the size their shape checks have run at in CI.
SHAPE_SIZES = (200,)


class TestPaperShapes:
    """Section 6.2's shapes, as orderings and tolerances, at seed 0.

    What the figures show about time is ``python3 -m bench``'s to
    measure; a check here reads no clock.
    """

    @pytest.fixture(scope="class")
    def fig9(self):
        return exp_fs.run(sizes=SHAPE_SIZES, seed=0)

    @pytest.fixture(scope="class")
    def fig10(self):
        return exp_sn.run(sizes=SHAPE_SIZES, seed=0)

    def test_fig9_fsrck_keeps_precision_at_comparable_recall(self, fig9):
        for record in fig9:
            assert record["FSrck recall"] > 0
            assert record["FSrck precision"] >= record["FS precision"] - 0.02
            assert abs(record["FSrck recall"] - record["FS recall"]) < 0.1

    def test_fig10_snrck_wins_precision_with_fewer_probes(self, fig10):
        for record in fig10:
            assert record["SNrck precision"] > record["SN precision"]
            assert record["SNrck probes"] < record["SN probes"]
            assert record["SNrck recall"] > 0.85

    def test_fig9d_10d_rck_blocking_key(self):
        for row in exp_blocking.run(sizes=SHAPE_SIZES, seed=0, mode="blocking"):
            assert row["RCK candidates"] > 0
            assert row["RCK PC"] >= row["manual PC"] - 0.02
            # Fig. 10(d): reduction ratios comparable (both in the high 90s).
            assert abs(row["RCK RR"] - row["manual RR"]) < 0.02
            assert row["RCK RR"] > 0.95

    def test_exp4_windowing_rck_sort_key(self):
        for row in exp_blocking.run(sizes=SHAPE_SIZES, seed=0, mode="windowing"):
            assert row["mode"] == "windowing"
            assert row["RCK PC"] >= row["manual PC"] - 0.05
            assert row["RCK RR"] > 0.9


class TestAblations:
    """The ablations of the paper's open questions, on K=1000 (K=800 for
    the noise and discovery ones), seed 0 unless stated."""

    @pytest.fixture(scope="class")
    def prepared(self):
        return exp_fs.prepare(1000, seed=0)

    def test_rck_union_rescues_recall(self, prepared):
        # Section 6.2: a single RCK loses recall to noise in its
        # attributes; the union of several mediates it.
        dataset, candidates, rcks = prepared
        recalls = {
            k: evaluate_matches(
                exp_sn.match_on_keys(dataset, rcks[:k], candidates),
                dataset.true_matches,
            ).recall
            for k in (1, 3, 5)
        }
        assert recalls[5] > recalls[1]
        assert recalls[3] >= recalls[1]

    def test_window_size_trades_completeness_for_reduction(self, prepared):
        dataset, _, rcks = prepared
        sweep = {}
        for window in (2, 5, 10, 20, 40):
            candidates = exp_fs.windowing_candidates(dataset, rcks, window)
            reduction = evaluate_reduction(
                candidates, dataset.true_matches, dataset.total_pairs
            )
            sweep[window] = (
                reduction.pairs_completeness, reduction.reduction_ratio
            )
        pcs = [pc for pc, _ in sweep.values()]
        rrs = [rr for _, rr in sweep.values()]
        # PC grows monotonically with the window; RR shrinks.
        assert pcs == sorted(pcs)
        assert rrs == sorted(rrs, reverse=True)
        # w = 10 already captures most of the achievable completeness.
        assert sweep[10][0] > 0.9 * sweep[40][0]

    def test_noise_model_reading(self):
        # The literal reading of "errors in each attribute with
        # probability 80%" destroys recall; the calibrated one does not.
        def recall(noise):
            dataset = generate_dataset(800, noise=noise, seed=0)
            rcks = find_rcks(extended_mds(dataset.pair), dataset.target, m=5)
            report = _direct_workspace(dataset, rcks).match(
                dataset.credit, dataset.billing
            )
            return evaluate_matches(report.matches, dataset.true_matches).recall

        default = recall(NoiseModel())
        assert recall(harsh_noise()) < 0.5
        assert default > 0.8
        assert recall(light_noise()) >= default - 0.05

    def test_diversity_term_does_not_raise_key_overlap(self):
        dataset = generate_dataset(1000, seed=0)
        sigma = extended_mds(dataset.pair)
        lengths = length_statistics_from_rows(
            pairing(sigma, dataset.target),
            [row.values() for row in dataset.credit.rows()[:200]],
            [row.values() for row in dataset.billing.rows()[:200]],
        )
        longest = max(lengths.values())
        lengths = {key: value / longest for key, value in lengths.items()}

        def overlap(model):
            keys = find_rcks(sigma, dataset.target, m=5, cost_model=model)
            return _mean_overlap(keys)

        assert overlap(CostModel(lengths=lengths)) <= (
            overlap(CostModel(w1=0.0, lengths=lengths)) + 0.15
        )

    def test_mined_mds_compete_with_expert_mds(self):
        # Section 7: MDs mined from a labelled sample, then reasoned into
        # RCKs, match a held-out set about as well as the expert MDs.
        train = generate_dataset(800, seed=5)
        key = attribute_key(["zip", "LN"])
        candidates = window_candidates(train.credit, train.billing, key, key, 10)
        sample = sample_labelled_pairs(
            candidates, train.true_matches, limit=5000, seed=0
        ) + random_labelled_pairs(
            train.credit, train.billing, train.true_matches, 5000, seed=1
        )
        mined = discover_mds(
            train.credit,
            train.billing,
            sample,
            train.target,
            DiscoveryConfig(min_confidence=0.97, min_support=10, max_lhs=2),
        )
        held_out = generate_dataset(800, seed=91)
        quality = {}
        for label, sigma in (
            ("mined", [rule.dependency for rule in mined]),
            ("expert", extended_mds(train.pair)),
        ):
            rcks = find_rcks(sigma, train.target, m=5)
            report = _direct_workspace(train, rcks).match(
                held_out.credit, held_out.billing
            )
            quality[label] = evaluate_matches(
                report.matches, held_out.true_matches
            )
        assert quality["mined"].f1 > quality["expert"].f1 - 0.10
        assert quality["mined"].precision > 0.9


def _direct_workspace(dataset, rcks):
    """A workspace matching on ``rcks`` alone (``direct`` mode)."""
    return Workspace.from_dict(
        resolution_spec_document(
            dataset.pair, dataset.target, [], rcks=rcks,
            execution={"mode": "direct"},
        )
    )


def _mean_overlap(keys):
    """Average Jaccard overlap of the attribute pairs of consecutive keys."""
    pair_sets = [set(key.attribute_pairs()) for key in keys]
    if len(pair_sets) < 2:
        return 0.0
    overlaps = [
        len(first & second) / len(first | second)
        for first, second in zip(pair_sets, pair_sets[1:])
    ]
    return sum(overlaps) / len(overlaps)
