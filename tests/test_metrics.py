"""Evaluation metrics and the random-subset protocol."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probederand import UsageError, clustering, metrics
from probederand.clustering import (
    NOISE,
    DbscanConfig,
    KmeansConfig,
    ie_only_cluster,
    n_clusters,
    two_stage_cluster,
)
from probederand.features import normalize_ie_matrix
from probederand.metrics import (
    METHOD_IE_ONLY,
    METHOD_TWO_STAGE,
    METHODS,
    EvalConfig,
    MetricReport,
    delta_error,
    draw_subsets,
    homogeneity_completeness_v,
    rmse,
    run_protocol,
    summarize,
    tune_dbscan,
)
from probederand.randomness import STREAM_KMEANS, child_seed

from oracles import (
    burst_table,
    oracle_hcv,
    padded,
    per_point_tune,
    reference_pools,
    reference_run_protocol,
    reference_score,
    table_rows,
)


@st.composite
def coded_draws(draw):
    """One draw's truth device codes, which may skip values, and its
    labels: ``NOISE`` or 0..k-1 at random, one cluster, or every row a
    cluster of its own. Up to 40 rows, so predicted columns often hold
    8 rows or more, where numpy's sums turn pairwise."""
    n = draw(st.integers(1, 40))
    devices = draw(st.lists(st.integers(0, 30), min_size=1, max_size=6, unique=True))
    truth = np.array(draw(st.lists(st.sampled_from(devices), min_size=n, max_size=n)), dtype=np.intp)
    shape = draw(st.sampled_from(["random", "one", "singletons"]))
    if shape == "one":
        return truth, np.zeros(n, dtype=int)
    if shape == "singletons":
        return truth, np.arange(n)
    low = NOISE if draw(st.booleans()) else 0
    return truth, np.array(draw(st.lists(st.integers(low, draw(st.integers(0, 4))), min_size=n, max_size=n)))


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

    @given(coded_draws())
    @settings(max_examples=200, deadline=None)
    @example((np.array([0, 5, 9] * 7, dtype=np.intp), np.zeros(21, dtype=int)))
    @example((np.array([3] * 9 + [7] * 9, dtype=np.intp), np.array([NOISE] * 10 + [0] * 8)))
    def test_score_from_codes_is_exact(self, instance):
        """A draw scored from its truth codes and ``labels + 1`` reports,
        bit for bit, what its device names and labels score through
        ``np.unique``."""
        truth, labels = instance
        p, s = len(set(truth.tolist())), 3
        h, c, v = homogeneity_completeness_v([f"dev{code:02d}" for code in truth], labels.tolist())
        count = n_clusters(labels)
        assert metrics._score(p, s, truth, labels) == MetricReport(h, c, v, count, delta_error(count, p), p, s)
        assert (h, c, v) == pytest.approx(oracle_hcv(truth.tolist(), labels.tolist()), abs=1e-12)

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
    """A table of labeled bursts with separated templates (or twin templates)."""
    bursts = []
    bid = 0
    for d in range(n_devices):
        template_index = d // 2 if twins else d
        ie = (40.0 * (template_index + 1), 8.0 * (template_index + 1), 3.0 * template_index)
        vector = (1, 6, 11) if d % 2 == 0 else (11, 6, 1)
        for _ in range(bursts_per):
            bursts.append((bid, bytes([0x02, 0, 0, 0, d, bid % 256]), ie, vector, f"dev{d:02d}"))
            bid += 1
    return burst_table(bursts)


def tune_bursts(groups):
    """Labelled bursts of (IE row, count, device index) groups, ids in
    group order."""
    features = [(row, f"dev{d}") for row, count, d in groups for _ in range(count)]
    return [(i, bytes([2, 0, 0, 0, 0, i]), row, (1, 6, 11), device) for i, (row, device) in enumerate(features)]


@st.composite
def duplicate_heavy_tunes(draw):
    """Labelled bursts on a few IE lattice rows with large multiplicities,
    shared between devices and in shuffled id order, with unsorted grids
    that may repeat a value. Every device carries the rows (0, 0, 0) and
    (4, 4, 4), so every pool scales by 4 and eps 0.25 and 0.5 are exact
    distances between pairs of rows."""
    cell = st.tuples(*[st.integers(0, 4)] * 3)
    vectors = st.sampled_from([(1, 6, 11), (11, 6, 1), (6, 6, 6)])
    features = []
    for d in range(draw(st.integers(2, 5))):
        rows = [(0, 0, 0), (4, 4, 4), *draw(st.lists(cell, max_size=3))]
        counts = draw(st.lists(st.integers(1, 12), min_size=len(rows), max_size=len(rows)))
        vector = draw(vectors)
        features += [(row, vector, f"dev{d}") for row, c in zip(rows, counts) for _ in range(c)]
    ids = draw(st.permutations(range(len(features))))
    bursts = [
        (i, bytes([2, 0, 0, 0, i // 256, i % 256]), row, vector, device)
        for i, (row, vector, device) in zip(ids, features)
    ]
    eps_grid = draw(st.lists(st.sampled_from([0.25, 0.5, 0.3, 0.75, 2.0]), min_size=1, max_size=4))
    minpts_grid = draw(st.lists(st.integers(1, 30), min_size=1, max_size=4))
    cfg = EvalConfig(d=draw(st.integers(1, 3)), seed=draw(st.integers(0, 99)))
    return bursts, eps_grid, minpts_grid, cfg


@st.composite
def labelled_protocols(draw):
    """Labelled bursts with shuffled, gapped ids, one or two non-integer
    IE fingerprints per device (so a draw's min-max span depends on its
    devices), channel vectors that may end in zeros (``(1, 6)`` and
    ``(1, 6, 0)`` pad to one row) and devices that may have a single
    burst; protocol, stage and tune settings."""
    values = st.sampled_from([0.0, 0.5, 1.25, 3.0, 40.75])
    fingerprints = st.tuples(values, values, values)
    vectors = st.sampled_from([(1, 6), (1, 6, 0), (6, 1), (1, 6, 11), (11, 6, 1, 0, 0), (6,), (13, 1, 1)])
    rows = []
    for d in range(draw(st.integers(2, 5))):
        own = draw(st.lists(fingerprints, min_size=1, max_size=2))
        for _ in range(draw(st.integers(1, 8))):
            rows.append((draw(st.sampled_from(own)), draw(vectors), f"dev{d}"))
    ids = draw(st.lists(st.integers(0, 9_999), min_size=len(rows), max_size=len(rows), unique=True))
    bursts = [
        (i, bytes([2, 0, 0, 0, i // 256, i % 256]), ie, vector, device)
        for i, (ie, vector, device) in zip(ids, rows)
    ]
    cfg = EvalConfig(d=draw(st.integers(1, 3)), seed=draw(st.integers(0, 99)))
    eps_grid = draw(st.lists(st.sampled_from([0.05, 0.3, 0.5, 2.0]), min_size=1, max_size=3))
    minpts_grid = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    dbscan_cfg = DbscanConfig(eps=eps_grid[0], min_pts=minpts_grid[0])
    kmeans_cfg = KmeansConfig(k_max=draw(st.integers(1, 5)))
    return bursts, cfg, dbscan_cfg, kmeans_cfg, eps_grid, minpts_grid


class TestProtocol:
    def test_report_arithmetic(self):
        bursts = synthetic_bursts()
        cfg = EvalConfig(d=10, seed=3)
        results = run_protocol(bursts, cfg, DbscanConfig(min_pts=5), KmeansConfig(seed=3))
        assert list(results) == list(METHODS)
        for reports in results.values():
            assert len(reports) == 130  # p = 1..13, ten subsets each
            assert [(r.p, r.subset_index) for r in reports] == [
                (p, s) for p in range(1, 14) for s in range(10)
            ]

    def test_single_device_is_perfect(self):
        bursts = synthetic_bursts(n_devices=3, bursts_per=15)
        cfg = EvalConfig(d=4, seed=5)
        for reports in run_protocol(bursts, cfg, DbscanConfig(), KmeansConfig(seed=5)).values():
            for report in (r for r in reports if r.p == 1):
                assert (report.homogeneity, report.completeness, report.v_measure) == (1, 1, 1)
                assert report.delta == 0

    def test_reports_reproducible(self):
        bursts = synthetic_bursts(n_devices=6, bursts_per=12, twins=True)
        cfg = EvalConfig(d=3, seed=11)
        args = (bursts, cfg, DbscanConfig(min_pts=5), KmeansConfig(seed=11))
        assert run_protocol(*args) == run_protocol(*args)

    def test_parallel_equals_serial(self):
        bursts = synthetic_bursts(n_devices=5, bursts_per=12)
        cfg = EvalConfig(d=3, seed=13)
        args = (bursts, cfg, DbscanConfig(min_pts=5), KmeansConfig(seed=13))
        serial = run_protocol(*args, jobs=1)
        assert list(serial) == list(METHODS)
        for method, reports in run_protocol(*args, jobs=2).items():
            assert reports == serial[method]

    def test_one_fine_stage_cache_per_run(self, monkeypatch):
        """Twin pools recur across draws, so one cache per run executes
        fewer Lloyd runs than a memo per ``spherical_kmeans`` call; no
        state survives a run, so a second run executes as many as the
        first. The reports are the same every time."""
        bursts = synthetic_bursts(n_devices=6, bursts_per=12, twins=True)
        args = (bursts, EvalConfig(d=4, seed=2), DbscanConfig(min_pts=5), KmeansConfig())
        runs = []
        lloyd = clustering._lloyd

        def counting_lloyd(unit, k, centers):
            runs.append(k)
            return lloyd(unit, k, centers)

        monkeypatch.setattr(clustering, "_lloyd", counting_lloyd)
        first = run_protocol(*args)
        first_runs = len(runs)
        assert run_protocol(*args) == first
        second_runs = len(runs) - first_runs

        kmeans = clustering.spherical_kmeans

        def per_call_memo(rows, k, rng, history=None, pool=None):
            return kmeans(rows, k, rng, history=history)

        monkeypatch.setattr(clustering, "spherical_kmeans", per_call_memo)
        runs.clear()
        assert run_protocol(*args) == first
        assert 0 < first_runs == second_runs < len(runs)

    def test_one_dbscan_per_draw_scores_both_methods(self, monkeypatch):
        """Each draw runs DBSCAN once; its coarse labels are the ie-only run."""
        bursts = synthetic_bursts(n_devices=5, bursts_per=12, twins=True)
        cfg = EvalConfig(d=3, seed=17)
        dbscan_cfg = DbscanConfig(min_pts=5)
        pools = reference_pools(table_rows(bursts), cfg)
        want = [
            reference_score(p, s, pool, ie_only_cluster([b.ie_features for b in pool], dbscan_cfg))
            for p, s, pool in pools
        ]

        calls = []
        original = clustering.dbscan_labels

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(clustering, "dbscan_labels", counted)
        results = run_protocol(bursts, cfg, dbscan_cfg, KmeansConfig(seed=17), jobs=1)
        assert calls == [len(pool) for _, _, pool in pools]
        assert results[METHOD_IE_ONLY] == want
        assert len(results[METHOD_TWO_STAGE]) == len(pools)

    @pytest.mark.parametrize("twins", [False, True])
    def test_equal_labelings_scored_once(self, monkeypatch, twins):
        """A draw whose fine stage keeps the coarse labels is scored by
        one ``_hcv`` call, and that one report stands for both methods;
        any other draw is scored twice. Separated templates give only
        equal labelings, twins split their pools."""
        bursts = synthetic_bursts(n_devices=6, bursts_per=12, twins=twins)
        args = (bursts, EvalConfig(d=4, seed=3), DbscanConfig(min_pts=5), KmeansConfig(seed=3))
        coarse_runs, final_runs, hcv_calls = [], [], []

        def recorded(runs, original):
            def wrapper(*call_args, **kwargs):
                runs.append(original(*call_args, **kwargs))
                return runs[-1]

            return wrapper

        monkeypatch.setattr(metrics, "ie_only_cluster", recorded(coarse_runs, metrics.ie_only_cluster))
        monkeypatch.setattr(metrics, "two_stage_cluster", recorded(final_runs, metrics.two_stage_cluster))
        monkeypatch.setattr(metrics, "_hcv", recorded(hcv_calls, metrics._hcv))
        results = run_protocol(*args, jobs=1)
        equal = [np.array_equal(final, coarse) for final, coarse in zip(final_runs, coarse_runs)]
        assert len(equal) == len(results[METHOD_IE_ONLY]) > 0
        assert all(equal) != twins
        assert len(hcv_calls) == sum(1 if same else 2 for same in equal)
        for same, two_stage, ie_only in zip(equal, results[METHOD_TWO_STAGE], results[METHOD_IE_ONLY]):
            assert (two_stage is ie_only) == same

    @given(duplicate_heavy_tunes())
    @settings(max_examples=30, deadline=None)
    def test_draw_scores_match_oracle(self, instance):
        """Both methods of a draw are scored from the one encoding of the
        truth labels made for the whole protocol run."""
        bursts, eps_grid, minpts_grid, cfg = instance
        dbscan_cfg = DbscanConfig(eps=eps_grid[0], min_pts=minpts_grid[0])
        results = run_protocol(burst_table(bursts), cfg, dbscan_cfg, KmeansConfig())
        for i, (p, s, pool) in enumerate(reference_pools(bursts, cfg)):
            kmeans_cfg = KmeansConfig(seed=child_seed(cfg.seed, STREAM_KMEANS, p, s))
            coarse = ie_only_cluster([b.ie_features for b in pool], dbscan_cfg)
            final = two_stage_cluster(padded([b.channel_vector for b in pool]), coarse, kmeans_cfg)
            truth = [b.truth_device for b in pool]
            for method, labels in ((METHOD_TWO_STAGE, final), (METHOD_IE_ONLY, coarse)):
                report = results[method][i]
                got = (report.homogeneity, report.completeness, report.v_measure)
                assert got == pytest.approx(oracle_hcv(truth, labels.tolist()), abs=1e-9)
                assert report.n_clusters == n_clusters(labels)
                assert (report.delta, report.p, report.subset_index) == (n_clusters(labels) - p, p, s)

    @given(labelled_protocols())
    @settings(max_examples=40, deadline=None)
    def test_matches_per_draw_reference(self, instance):
        """Draws as row positions into one table score as clustering each
        draw's bursts on their own, in both entry points."""
        bursts, cfg, dbscan_cfg, kmeans_cfg, eps_grid, minpts_grid = instance
        want = reference_run_protocol(bursts, cfg, dbscan_cfg, kmeans_cfg)
        assert run_protocol(burst_table(bursts), cfg, dbscan_cfg, kmeans_cfg) == want
        assert tune_dbscan(burst_table(bursts), eps_grid, minpts_grid, cfg) == per_point_tune(
            bursts, eps_grid, minpts_grid, cfg
        )

    def test_table_built_once_per_call(self, monkeypatch):
        """One ``run_protocol`` call pads the channel vectors once,
        however many draws it scores; ``tune_dbscan`` pads nothing."""
        calls = {"pad_matrix": 0}

        def counted(name, original):
            def step(*args):
                calls[name] += 1
                return original(*args)

            return step

        for module in (metrics, clustering):
            for name in calls:
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        bursts = synthetic_bursts(n_devices=5, bursts_per=12, twins=True)
        cfg = EvalConfig(d=3, seed=21)
        results = run_protocol(bursts, cfg, DbscanConfig(min_pts=5), KmeansConfig())
        assert len(results[METHOD_TWO_STAGE]) == 12
        assert calls == {"pad_matrix": 1}
        calls.update({name: 0 for name in calls})
        tune_dbscan(bursts, [0.05, 0.3], [5, 10], cfg)
        assert calls == {"pad_matrix": 0}

    @pytest.mark.parametrize("n_devices", [0, 1])
    def test_fewer_than_two_devices_rejected(self, n_devices):
        """With under two devices the protocol has no draw to score, so
        both entry points say so instead of returning empty or NaN rows."""
        bursts = synthetic_bursts(n_devices=n_devices)
        cfg = EvalConfig(d=2, seed=1)
        match = f"at least 2 labelled devices, found {n_devices}"
        with pytest.raises(ValueError, match=match):
            run_protocol(bursts, cfg, DbscanConfig(), KmeansConfig())
        with pytest.raises(ValueError, match=match):
            tune_dbscan(bursts, [0.05], [5], cfg)

    def test_unlabeled_bursts_rejected(self):
        """Both entry points name the lowest unlabelled burst id."""
        bursts = synthetic_bursts(n_devices=3)
        rows = [row._replace(truth_device=None) if row.burst_id in (30, 7) else row for row in table_rows(bursts)]
        cfg = EvalConfig(d=1, seed=1)
        match = "^burst 7 has no ground-truth label; evaluation needs a labeled dataset$"
        with pytest.raises(ValueError, match=match):
            run_protocol(burst_table(rows), cfg, DbscanConfig(), KmeansConfig())
        with pytest.raises(ValueError, match=match):
            tune_dbscan(burst_table(rows), [0.05], [5], cfg)

    @pytest.mark.parametrize("entry", ["run_protocol", "tune_dbscan"])
    def test_memory_flat_in_d(self, entry):
        """A call holds one draw's rows at a time, so going from 1 to 4
        draws per population size adds reports, not four times the
        draws' rows. Each device is one coarse pool with one distinct
        channel row, so no k-means work hides the draws' memory."""
        bursts = synthetic_bursts(n_devices=30, bursts_per=40)
        call = {
            "run_protocol": lambda d: run_protocol(bursts, EvalConfig(d=d), DbscanConfig(), KmeansConfig()),
            "tune_dbscan": lambda d: tune_dbscan(bursts, [0.05], [5], EvalConfig(d=d)),
        }[entry]
        call(1)  # the first call's imports would inflate its peak
        peaks = []
        for d in (1, 4):
            tracemalloc.start()
            try:
                call(d)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.75 * peaks[0], peaks

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
        draws = draw_subsets(sorted(set(bursts.truth_devices)), cfg)
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

    @given(duplicate_heavy_tunes())
    @settings(max_examples=60, deadline=None)
    # 0.1 and 0.2 beside -1e17 scale to one value but are two fingerprints
    @example(
        (
            tune_bursts([((0.1, 1, 1), 2, 0), ((0.2, 1, 1), 2, 0), ((-1e17, 1, 1), 1, 0), ((5, 5, 5), 3, 1)]),
            [0.25],
            [4, 5, 1],
            EvalConfig(d=2, seed=3),
        )
    )
    # 0.0 and -0.0: two fingerprints by bytes, at distance 0
    @example(
        (
            tune_bursts([((0.0, 1, 2), 2, 0), ((-0.0, 1, 2), 3, 0), ((4, 4, 4), 4, 0), ((-0.0, 1, 2), 2, 1)]),
            [0.5],
            [4, 5, 6],
            EvalConfig(d=2, seed=5),
        )
    )
    # eps 0.25 and 0.3 give one neighbour matrix, min_pts 1 and 30 two
    # core masks, so a memo keyed on the neighbours alone reuses a score
    @example(
        (
            tune_bursts([((0, 0, 0), 3, 0), ((1, 0, 0), 2, 0), ((4, 4, 4), 3, 0), ((0, 0, 0), 2, 1), ((4, 4, 4), 2, 1)]),
            [0.25, 0.3],
            [1, 30],
            EvalConfig(d=2, seed=1),
        )
    )
    def test_matches_per_point_oracle(self, instance):
        bursts, eps_grid, minpts_grid, cfg = instance
        want = per_point_tune(bursts, eps_grid, minpts_grid, cfg)
        assert tune_dbscan(burst_table(bursts), eps_grid, minpts_grid, cfg) == want

    @staticmethod
    def count_steps(monkeypatch):
        """Counts of the calls to ``_distinct_rows`` by the dimension of
        its input, to the coarse neighbour step and to scoring, each
        patched where its callers look it up, and of ``np.unique`` over
        rows (an ``axis`` given)."""
        calls = dict.fromkeys(["distinct 2-D", "distinct 1-D", "_dbscan_neighbours", "_hcv", "unique axis"], 0)

        def count(module, name, key=None):
            original = getattr(module, name)

            def step(*args, **kwargs):
                counted = name if key is None else key(*args, **kwargs)
                if counted is not None:
                    calls[counted] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, step)

        for module in (clustering, metrics):
            count(module, "_distinct_rows", lambda values: f"distinct {np.ndim(values)}-D")
        count(metrics, "_dbscan_neighbours")
        count(metrics, "_hcv")
        count(np, "unique", lambda *args, axis=None, **kwargs: None if axis is None else "unique axis")
        return calls

    def test_grid_validated_before_any_pool_is_clustered(self, monkeypatch):
        calls = self.count_steps(monkeypatch)
        bursts = synthetic_bursts(n_devices=3)
        with pytest.raises(ValueError, match="min_pts"):
            tune_dbscan(bursts, [0.05], [5, 0], EvalConfig(d=1, seed=1))
        assert calls == dict.fromkeys(calls, 0)

    def test_pools_found_from_ids_neighbours_once_per_eps_scored_once_per_key(self, monkeypatch):
        """One ``_distinct_rows`` over the table's IE rows per call gives
        the fingerprint ids, one over its ids per draw finds the draw's
        distinct rows, and no ``np.unique`` runs over rows. The
        neighbours are built once per (pool, eps), and each pool's
        labels are scored once per distinct (neighbour booleans, core
        rows), counted here the plain way."""
        bursts = synthetic_bursts(n_devices=5, bursts_per=12)
        cfg = EvalConfig(d=3, seed=21)
        eps_grid, minpts_grid = [0.05, 0.3, 0.9], [5, 13]
        pools = reference_pools(table_rows(bursts), cfg)
        keys = 0
        for _, _, pool in pools:
            data = normalize_ie_matrix([b.ie_features for b in pool])
            first, weights, _ = clustering._distinct_rows(data)
            found = set()
            for eps in eps_grid:
                within, reach = clustering._dbscan_neighbours(data[first], weights, eps)
                found.update((within.tobytes(), (reach >= min_pts).tobytes()) for min_pts in minpts_grid)
            keys += len(found)
        assert keys < 6 * len(pools)  # the grid repeats labelings

        calls = self.count_steps(monkeypatch)
        for _ in range(2):  # nothing carries over from one call to the next
            tune_dbscan(bursts, eps_grid, minpts_grid, cfg)
            assert calls == {
                "distinct 2-D": 1,
                "distinct 1-D": len(pools),
                "_dbscan_neighbours": 3 * len(pools),
                "_hcv": keys,
                "unique axis": 0,
            }
            calls.update(dict.fromkeys(calls, 0))


class TestUsageError:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: DbscanConfig(eps=-1),
            lambda: EvalConfig(d=0),
            lambda: tune_dbscan(synthetic_bursts(n_devices=3), [], [5], EvalConfig(d=1, seed=1)),
            lambda: run_protocol(
                synthetic_bursts(n_devices=1), EvalConfig(d=1, seed=1), DbscanConfig(), KmeansConfig()
            ),
        ],
        ids=["eps", "d", "empty-grid", "one-device"],
    )
    def test_settings_a_call_cannot_run_on(self, call):
        """A UsageError is a ValueError, so callers that catch ValueError
        still catch it."""
        with pytest.raises(ValueError) as excinfo:
            call()
        assert isinstance(excinfo.value, UsageError)

    def test_unlabelled_burst_is_not_a_usage_error(self):
        bursts = burst_table([(0, b"\x02\x00\x00\x00\x00\x01", (1.0, 2.0, 3.0), (1, 6))])
        with pytest.raises(ValueError) as excinfo:
            run_protocol(bursts, EvalConfig(d=1), DbscanConfig(), KmeansConfig())
        assert not isinstance(excinfo.value, UsageError)


class TestEvalConfig:
    def test_d_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(d=0)

    def test_default_p_range(self):
        draws = draw_subsets([f"d{i}" for i in range(5)], EvalConfig(seed=1))
        assert sorted({p for p, _, _ in draws}) == [1, 2, 3, 4]
