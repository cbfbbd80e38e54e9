"""Acceptance gates for the full pipeline.

Each test prints one PASS line once its criterion holds. Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. The heavyweight fixtures (synthetic datasets and protocol
runs) are module-scoped so reruns for the determinism gate stay cheap.
"""

import numpy as np
import pytest

from probederand.clustering import (
    DbscanConfig,
    KmeansConfig,
    dbscan_labels,
    dynamic_threshold,
)
from probederand.features import group_bursts
from probederand.metrics import (
    METHOD_IE_ONLY,
    METHOD_TWO_STAGE,
    EvalConfig,
    draw_subsets,
    homogeneity_completeness_v,
    rmse,
    run_protocol,
    write_report_files,
)
from probederand.pcap import CaptureMeta, read_capture, read_dataset
from probederand.synth import (
    SNIFFERS_LOSSLESS,
    DeviceProfile,
    IeTemplate,
    Scenario,
    generate_device,
    generate_scenario,
    write_capture,
)

from oracles import canonical_partition, oracle_hcv, reference_dbscan, table_rows
from scenarios import hetero_scenario, mixed_scenario, twin_scenario

# Pinned experiment seeds. The protocol seed is chosen so that every
# population size p >= 2 draws at least one complete twin pair; without
# one, both methods are perfect and the strict inequalities below would
# be vacuous.
SCENARIO_SEED = 424242
PROTOCOL_SEED = 1

FIG1_BURST = (1, 1, 2, 2, 5, 7, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13)


def ingest(root):
    frames, labels = read_dataset(root)
    return group_bursts(frames, 2.0, labels)


def by_population(reports):
    grouped = {}
    for report in reports:
        grouped.setdefault(report.p, []).append(report)
    return grouped


@pytest.fixture(scope="module")
def twin_setup(tmp_path_factory):
    scenario = twin_scenario(seed=SCENARIO_SEED, jitter=0.0)
    root = generate_scenario(scenario, tmp_path_factory.mktemp("twin") / "ds")
    bursts = ingest(root)
    counts = {}
    for device in bursts.truth_devices:
        counts[device] = counts.get(device, 0) + 1
    assert len(counts) == 14
    assert min(counts.values()) >= 30
    return scenario, bursts


def run_twin_protocols(bursts):
    eval_cfg = EvalConfig(d=10, seed=PROTOCOL_SEED)
    kmeans_cfg = KmeansConfig(seed=PROTOCOL_SEED)
    return run_protocol(bursts, eval_cfg, DbscanConfig(), kmeans_cfg)


@pytest.fixture(scope="module")
def twin_reports(twin_setup):
    _, bursts = twin_setup
    return run_twin_protocols(bursts)


@pytest.fixture(scope="module")
def mixed_setup(tmp_path_factory):
    scenario = mixed_scenario(seed=SCENARIO_SEED)
    root = generate_scenario(scenario, tmp_path_factory.mktemp("mixed") / "ds")
    return scenario, ingest(root)


def run_mixed_protocol(bursts):
    eval_cfg = EvalConfig(d=10, seed=PROTOCOL_SEED)
    return run_protocol(
        bursts, eval_cfg, DbscanConfig(), KmeansConfig(seed=PROTOCOL_SEED)
    )[METHOD_TWO_STAGE]


@pytest.fixture(scope="module")
def mixed_reports(mixed_setup):
    _, bursts = mixed_setup
    return run_mixed_protocol(bursts)


def test_criterion_1_dynamic_threshold_exact():
    assert abs(dynamic_threshold(1.0) - 0.4) <= 1e-12
    assert abs(dynamic_threshold(0.0) - 1.0) <= 1e-12
    assert abs(dynamic_threshold(-0.5) - 1.0) <= 1e-12
    print("ACCEPTANCE 1 dynamic-threshold-exactness: PASS")


def test_criterion_2_reference_burst_vector(tmp_path):
    profile = DeviceProfile(
        device_id="reference",
        ie_template=IeTemplate(ht=bytes([0xEF, 0x09]), extended=bytes([0x40]), vendor=()),
        pnl_pattern=FIG1_BURST,
        burst_length=len(FIG1_BURST),
        inter_burst_interval=30.0,
        channel_jitter=0.0,
    )
    scenario = Scenario(
        profiles=(profile,), duration=20.0, seed=3, sniffer_channels=SNIFFERS_LOSSLESS
    )
    root = generate_scenario(scenario, tmp_path / "ds")
    bursts = table_rows(ingest(root))
    assert bursts
    assert all(burst.channel_vector == FIG1_BURST for burst in bursts)
    print("ACCEPTANCE 2 reference-burst-vector: PASS")


def test_criterion_3_dbscan_matches_bruteforce():
    rng = np.random.default_rng(777)
    for case in range(100):
        n = int(rng.integers(10, 301))
        if rng.random() < 0.5:  # mix blobs and uniform scatter
            centers = rng.uniform(0, 1, size=(int(rng.integers(1, 6)), 3))
            picks = rng.integers(0, len(centers), size=n)
            points = np.clip(centers[picks] + rng.normal(0, 0.03, size=(n, 3)), 0, 1)
        else:
            points = rng.uniform(0, 1, size=(n, 3))
        eps = float(rng.uniform(0.03, 0.5))
        min_pts = int(rng.integers(1, 12))
        got = canonical_partition(dbscan_labels(points, eps, min_pts))
        want = canonical_partition(reference_dbscan(points, eps, min_pts))
        assert got == want, f"case {case}: eps={eps} min_pts={min_pts} n={n}"
    print("ACCEPTANCE 3 dbscan-oracle-equivalence: PASS")


def test_criterion_4_metric_oracle_equivalence():
    rng = np.random.default_rng(4242)
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        truth = [int(x) for x in rng.integers(0, 5, size=n)]
        pred = [int(x) for x in rng.integers(-1, 5, size=n)]
        got = homogeneity_completeness_v(truth, pred)
        want = oracle_hcv(truth, pred)
        assert all(abs(g - w) <= 1e-9 for g, w in zip(got, want))
    print("ACCEPTANCE 4 metric-oracle-equivalence: PASS")


def test_criterion_5_twin_separation(twin_reports):
    two = by_population(twin_reports[METHOD_TWO_STAGE])
    ie = by_population(twin_reports[METHOD_IE_ONLY])
    for p in range(2, 14):
        mean_h_two = np.mean([r.homogeneity for r in two[p]])
        mean_h_ie = np.mean([r.homogeneity for r in ie[p]])
        mean_v_two = np.mean([r.v_measure for r in two[p]])
        mean_v_ie = np.mean([r.v_measure for r in ie[p]])
        assert mean_h_two > mean_h_ie, f"homogeneity not improved at p={p}"
        assert mean_v_two > mean_v_ie, f"V-measure not improved at p={p}"
    pooled_two = [r for p in range(2, 14) for r in two[p]]
    pooled_ie = [r for p in range(2, 14) for r in ie[p]]
    rmse_two = rmse([r.n_clusters for r in pooled_two], [r.p for r in pooled_two])
    rmse_ie = rmse([r.n_clusters for r in pooled_ie], [r.p for r in pooled_ie])
    assert rmse_two < rmse_ie
    print(
        f"ACCEPTANCE 5 twin-separation (rmse {rmse_two:.3f} < {rmse_ie:.3f}): PASS"
    )


def test_criterion_6_ie_only_never_overcounts_templates(twin_setup, twin_reports):
    scenario, _ = twin_setup
    template_of = {
        p.device_id: (p.ie_template.ht, p.ie_template.extended, p.ie_template.vendor)
        for p in scenario.profiles
    }
    devices = sorted(template_of)
    draws = draw_subsets(devices, EvalConfig(d=10, seed=PROTOCOL_SEED))
    subset_by_key = {(p, s): subset for p, s, subset in draws}
    for report in twin_reports[METHOD_IE_ONLY]:
        subset = subset_by_key[(report.p, report.subset_index)]
        n_templates = len({template_of[d] for d in subset})
        assert report.n_clusters <= n_templates
    print("ACCEPTANCE 6 ie-only-undercount: PASS")


def test_criterion_7_overcount_bound(mixed_reports):
    grouped = by_population(mixed_reports)
    for p in range(1, 11):
        mean_delta = np.mean([r.delta for r in grouped[p]])
        assert 0.0 <= mean_delta <= 2.0, f"mean delta {mean_delta} out of bounds at p={p}"
    print("ACCEPTANCE 7 overcount-bound: PASS")


def test_criterion_8_protocol_determinism(
    twin_setup, twin_reports, mixed_setup, mixed_reports, tmp_path
):
    _, twin_bursts = twin_setup
    _, mixed_bursts = mixed_setup
    twin_again = run_twin_protocols(twin_bursts)
    mixed_again = run_mixed_protocol(mixed_bursts)

    def write_all(base, twin_results, mixed_results):
        base.mkdir()
        write_report_files(
            [(m, twin_results[m]) for m in (METHOD_TWO_STAGE, METHOD_IE_ONLY)],
            base / "twin_runs.csv",
            base / "twin_summary.csv",
            "twin protocol",
        )
        write_report_files(
            [(METHOD_TWO_STAGE, mixed_results)],
            base / "mixed_runs.csv",
            base / "mixed_summary.csv",
            "mixed protocol",
        )

    write_all(tmp_path / "first", twin_reports, mixed_reports)
    write_all(tmp_path / "second", twin_again, mixed_again)
    for name in ("twin_runs.csv", "twin_summary.csv", "mixed_runs.csv", "mixed_summary.csv"):
        first = (tmp_path / "first" / name).read_bytes()
        second = (tmp_path / "second" / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"
    print("ACCEPTANCE 8 determinism: PASS")


def test_criterion_9_parser_round_trip(tmp_path):
    profile = DeviceProfile(
        device_id="firehose",
        ie_template=IeTemplate(
            ht=bytes(range(26)), extended=bytes([0x04, 0x00, 0x0A]), vendor=(bytes([0, 0x50, 0xF2, 8]),)
        ),
        pnl_pattern=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13),
        burst_length=10,
        inter_burst_interval=0.5,
        channel_jitter=0.2,
    )
    rng = np.random.default_rng(99)
    frames = generate_device(profile, 500.0, rng)
    assert len(frames) == 10_000
    path = tmp_path / "big.pcap"
    write_capture(frames, path)
    recovered = read_capture(path.read_bytes(), CaptureMeta(str(path)))
    assert recovered == frames  # bit-exact on every modeled field
    print("ACCEPTANCE 9 parser-round-trip: PASS")


def test_criterion_10_hyperparameter_sweep(tmp_path):
    from probederand.metrics import tune_dbscan

    root = generate_scenario(hetero_scenario(seed=SCENARIO_SEED), tmp_path / "ds")
    bursts = ingest(root)
    rows = tune_dbscan(
        bursts,
        eps_grid=[0.02, 0.05, 0.1, 0.5],
        minpts_grid=[5, 10, 20],
        eval_cfg=EvalConfig(d=10, seed=PROTOCOL_SEED),
    )
    best = rows[0]
    assert best.mean_v == pytest.approx(1.0, abs=1e-12)
    assert best.mean_abs_delta == pytest.approx(0.0, abs=1e-12)
    print(
        f"ACCEPTANCE 10 sweep-sanity (best eps={best.eps}, min_pts={best.min_pts}): PASS"
    )
