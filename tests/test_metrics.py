"""Evaluation metrics and the random-subset protocol."""

import math
from dataclasses import replace

import numpy as np
import pytest

from probederand.clustering import DbscanConfig, KmeansConfig
from probederand.features import Burst
from probederand.metrics import (
    METHOD_IE_ONLY,
    METHOD_TWO_STAGE,
    EvalConfig,
    MetricReport,
    delta_error,
    draw_subsets,
    group_by_device,
    homogeneity_completeness_v,
    rmse,
    run_protocol,
    summarize,
    tune_dbscan,
)

from oracles import oracle_hcv


class TestHomogeneityCompletenessV:
    def test_perfect_clustering(self):
        truth = ["a", "a", "b", "b", "c"]
        pred = [5, 5, 2, 2, 9]  # any relabeling of the truth
        assert homogeneity_completeness_v(truth, pred) == (1.0, 1.0, 1.0)

    def test_single_cluster_is_complete(self):
        h, c, v = homogeneity_completeness_v(["a", "a", "b", "b"], [0, 0, 0, 0])
        assert c == 1.0
        assert h < 1.0

    def test_fully_split_prediction(self):
        h, c, v = homogeneity_completeness_v(["a", "a", "b", "b"], [0, 1, 2, 3])
        assert h == pytest.approx(1.0)
        assert c == pytest.approx(0.5)
        assert v == pytest.approx(2 / 3)

    def test_degenerate_inputs(self):
        assert homogeneity_completeness_v(["a"], [0]) == (1.0, 1.0, 1.0)
        h, c, v = homogeneity_completeness_v(["a", "a"], [0, 1])
        assert (h, c, v) == (1.0, 0.0, 0.0)

    def test_noise_counts_as_one_predicted_cluster(self):
        h, c, v = homogeneity_completeness_v(["a", "a", "b", "b"], [-1, -1, -1, -1])
        assert c == 1.0 and h < 1.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            homogeneity_completeness_v(["a"], [0, 1])

    def test_matches_oracle_on_random_labelings(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            truth = [int(x) for x in rng.integers(0, 4, size=n)]
            pred = [int(x) for x in rng.integers(-1, 4, size=n)]
            got = homogeneity_completeness_v(truth, pred)
            want = oracle_hcv(truth, pred)
            assert got == pytest.approx(want, abs=1e-9)

    def test_symmetry_of_conditionals(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            a = [int(x) for x in rng.integers(0, 3, size=n)]
            b = [int(x) for x in rng.integers(0, 3, size=n)]
            assert homogeneity_completeness_v(a, b)[0] == pytest.approx(
                homogeneity_completeness_v(b, a)[1], abs=1e-12
            )

    def test_bounds(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            truth = [int(x) for x in rng.integers(0, 5, size=n)]
            pred = [int(x) for x in rng.integers(0, 5, size=n)]
            h, c, v = homogeneity_completeness_v(truth, pred)
            assert 0.0 <= h <= 1.0 and 0.0 <= c <= 1.0
            assert 0.0 <= v <= (h + c) / 2 + 1e-12


class TestDeltaAndRmse:
    def test_delta_examples(self):
        assert delta_error(5, 5) == 0
        assert delta_error(3, 5) == -2
        assert delta_error(7, 5) == 2

    def test_rmse_examples(self):
        assert rmse([5, 5], [5, 5]) == 0.0
        assert rmse([4, 6], [5, 5]) == pytest.approx(1.0)
        assert rmse([7, 7], [5, 5]) == pytest.approx(2.0)

    def test_rmse_validation(self):
        with pytest.raises(ValueError):
            rmse([1], [1, 2])
        with pytest.raises(ValueError):
            rmse([], [])


def synthetic_bursts(n_devices=14, bursts_per=12, twins=False):
    """Labeled bursts with separated templates (or twin templates)."""
    bursts = []
    bid = 0
    for d in range(n_devices):
        template_index = d // 2 if twins else d
        ie = (40.0 * (template_index + 1), 8.0 * (template_index + 1), 3.0 * template_index)
        vector = (1, 6, 11) if d % 2 == 0 else (11, 6, 1)
        for _ in range(bursts_per):
            bursts.append(
                Burst(
                    burst_id=bid,
                    source_mac=bytes([0x02, 0, 0, 0, d, bid % 256]),
                    ie_features=ie,
                    channel_vector=vector,
                    truth_device=f"dev{d:02d}",
                )
            )
            bid += 1
    return bursts


class TestProtocol:
    def test_report_arithmetic(self):
        bursts = synthetic_bursts()
        cfg = EvalConfig(d=10, seed=3)
        reports = run_protocol(bursts, cfg, DbscanConfig(min_pts=5), KmeansConfig(seed=3), METHOD_IE_ONLY)
        assert len(reports) == 130  # p = 1..13, ten subsets each
        assert {r.p for r in reports} == set(range(1, 14))

    def test_single_device_is_perfect(self):
        bursts = synthetic_bursts(n_devices=3, bursts_per=15)
        cfg = EvalConfig(d=4, seed=5)
        for method in (METHOD_TWO_STAGE, METHOD_IE_ONLY):
            reports = run_protocol(bursts, cfg, DbscanConfig(), KmeansConfig(seed=5), method)
            for report in (r for r in reports if r.p == 1):
                assert (report.homogeneity, report.completeness, report.v_measure) == (1, 1, 1)
                assert report.delta == 0

    def test_reports_reproducible(self):
        bursts = synthetic_bursts(n_devices=6, bursts_per=12, twins=True)
        cfg = EvalConfig(d=3, seed=11)
        args = (bursts, cfg, DbscanConfig(min_pts=5), KmeansConfig(seed=11), METHOD_TWO_STAGE)
        assert run_protocol(*args) == run_protocol(*args)

    def test_parallel_equals_serial(self):
        bursts = synthetic_bursts(n_devices=5, bursts_per=12)
        cfg = EvalConfig(d=3, seed=13)
        args = (bursts, cfg, DbscanConfig(min_pts=5), KmeansConfig(seed=13), METHOD_TWO_STAGE)
        assert run_protocol(*args, jobs=1) == run_protocol(*args, jobs=2)

    def test_unlabeled_bursts_rejected(self):
        burst = Burst(0, b"\x02\x00\x00\x00\x00\x01", (1.0, 2.0, 3.0), (1, 6))
        with pytest.raises(ValueError, match="ground-truth"):
            group_by_device([burst])

    def test_draw_subsets_shape(self):
        cfg = EvalConfig(d=7, seed=2)
        draws = draw_subsets([f"d{i}" for i in range(6)], cfg)
        assert len(draws) == 5 * 7
        for p, s, subset in draws:
            assert len(subset) == p
            assert len(set(subset)) == p  # no replacement within a subset

    def test_summary_rows(self):
        reports = [
            MetricReport(1.0, 1.0, 1.0, 5, 0, 5, 0),
            MetricReport(0.5, 1.0, 2 / 3, 3, -2, 5, 1),
        ]
        (row,) = summarize(reports)
        assert row.p == 5
        assert row.mean_h == pytest.approx(0.75)
        assert row.rmse == pytest.approx(math.sqrt(2.0))


class TestTune:
    def test_separated_templates_reach_perfect_row(self):
        bursts = synthetic_bursts(n_devices=6, bursts_per=12)
        cfg = EvalConfig(d=4, seed=9)
        rows = tune_dbscan(bursts, [0.05, 0.9], [5, 10], cfg)
        assert len(rows) == 4
        best = rows[0]
        assert best.mean_v == pytest.approx(1.0)
        assert best.mean_abs_delta == pytest.approx(0.0)

    def test_giant_eps_collapses_to_one_cluster(self):
        bursts = synthetic_bursts(n_devices=5, bursts_per=12)
        cfg = EvalConfig(d=6, seed=17)
        (row,) = tune_dbscan(bursts, [5.0], [5], cfg)
        draws = draw_subsets(sorted({b.truth_device for b in bursts}), cfg)
        expected = np.mean([abs(1 - p) for p, _, _ in draws])
        assert row.mean_abs_delta == pytest.approx(expected)

    def test_single_point_grid(self):
        bursts = synthetic_bursts(n_devices=4, bursts_per=12)
        rows = tune_dbscan(bursts, [0.05], [10], EvalConfig(d=3, seed=2))
        assert len(rows) == 1
        assert (rows[0].eps, rows[0].min_pts) == (0.05, 10)

    def test_empty_grid_rejected(self):
        bursts = synthetic_bursts(n_devices=3)
        with pytest.raises(ValueError):
            tune_dbscan(bursts, [], [5], EvalConfig(d=1, seed=1))

    def test_sorted_best_first(self):
        bursts = synthetic_bursts(n_devices=5, bursts_per=12)
        rows = tune_dbscan(bursts, [0.05, 5.0], [5], EvalConfig(d=3, seed=21))
        assert rows[0].mean_v >= rows[-1].mean_v


class TestEvalConfig:
    def test_d_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(d=0)

    def test_default_p_range(self):
        draws = draw_subsets([f"d{i}" for i in range(5)], EvalConfig(seed=1))
        assert sorted({p for p, _, _ in draws}) == [1, 2, 3, 4]
