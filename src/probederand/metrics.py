"""Clustering quality metrics and the random-subset evaluation protocol.

Homogeneity, completeness and V-measure follow the conditional-entropy
definitions (entropies in nats); Delta is the signed difference between
the produced cluster count and the device-subset cardinality, and RMSE
aggregates it over repeated draws.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from .clustering import (
    DbscanConfig,
    KmeansConfig,
    UsageError,
    _dbscan_neighbours,
    _dbscan_scan,
    _distinct_rows,
    ie_only_cluster,
    n_clusters,
    two_stage_cluster,
)
from .features import BurstTable, normalize_ie_matrix, pad_matrix, write_table
from .randomness import DEFAULT_SEED, STREAM_KMEANS, STREAM_SAMPLING, child_seed, substream

METHOD_TWO_STAGE = "two-stage"
METHOD_IE_ONLY = "ie-only"
METHODS = (METHOD_TWO_STAGE, METHOD_IE_ONLY)


@dataclass(frozen=True)
class MetricReport:
    """Scores of one clustering run against ground truth."""

    homogeneity: float
    completeness: float
    v_measure: float
    n_clusters: int
    delta: int
    p: int
    subset_index: int


@dataclass(frozen=True)
class EvalConfig:
    """Subset-drawing protocol: d draws per population size p."""

    d: int = 10
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.d < 1:
            raise UsageError("d must be at least 1")


def _encode(labels: Sequence) -> tuple[int, np.ndarray]:
    """(number of classes, each label's index among the sorted classes)."""
    classes, codes = np.unique(np.asarray(labels), return_inverse=True)
    return len(classes), codes


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    probs = counts[counts > 0] / total
    return float(-(probs * np.log(probs)).sum())


def _conditional_entropy(table: np.ndarray) -> float:
    """H(rows | columns) from a joint count table."""
    total = table.sum()
    col_sums = table.sum(axis=0)
    value = 0.0
    for j in range(table.shape[1]):
        col = table[:, j]
        positive = col[col > 0]
        if positive.size == 0:
            continue
        value -= float((positive / total * np.log(positive / col_sums[j])).sum())
    return value


def _hcv(truth: tuple[int, np.ndarray], pred: Sequence) -> tuple[float, float, float]:
    """``homogeneity_completeness_v`` of ``pred`` against truth labels
    already encoded by ``_encode``."""
    n_truth, t_idx = truth
    n_pred, p_idx = _encode(pred)
    joint = np.bincount(t_idx * n_pred + p_idx, minlength=n_truth * n_pred)
    table = joint.reshape(n_truth, n_pred).astype(float)
    h_truth = _entropy(table.sum(axis=1))
    h_pred = _entropy(table.sum(axis=0))
    h = 1.0 if h_truth == 0 else 1.0 - _conditional_entropy(table) / h_truth
    c = 1.0 if h_pred == 0 else 1.0 - _conditional_entropy(table.T) / h_pred
    h = min(1.0, max(0.0, h))
    c = min(1.0, max(0.0, c))
    v = 0.0 if h + c == 0 else 2.0 * h * c / (h + c)
    return float(h), float(c), float(v)


def homogeneity_completeness_v(
    truth: Sequence, pred: Sequence
) -> tuple[float, float, float]:
    """(homogeneity, completeness, V-measure) of a predicted labeling.

    Noise labels participate as one predicted cluster of their own.
    """
    if len(truth) != len(pred):
        raise ValueError("truth and predicted labelings must cover the same bursts")
    if len(truth) == 0:
        raise ValueError("cannot score an empty labeling")
    return _hcv(_encode(truth), pred)


def delta_error(n_clusters: int, cardinality: int) -> int:
    """Signed difference between cluster count and true device count."""
    return n_clusters - cardinality


def rmse(counts: Sequence[float], targets: Sequence[float]) -> float:
    """Root mean squared error between cluster counts and targets."""
    if len(counts) != len(targets):
        raise ValueError("counts and targets must have equal length")
    if len(counts) == 0:
        raise ValueError("need at least one pair")
    diff = np.asarray(counts, dtype=float) - np.asarray(targets, dtype=float)
    return float(np.sqrt((diff * diff).mean()))


def draw_subsets(
    devices: Sequence[str], eval_cfg: EvalConfig
) -> list[tuple[int, int, tuple[str, ...]]]:
    """All (p, subset_index, device subset) draws of the protocol, for
    every population size p from 1 to one less than the device count.

    Devices within a subset are drawn uniformly without replacement;
    the d subsets of one population size may overlap each other.
    """
    universe = sorted(devices)
    rng = substream(eval_cfg.seed, STREAM_SAMPLING)
    draws = []
    for p in range(1, len(universe)):
        for s in range(eval_cfg.d):
            picked = rng.choice(len(universe), size=p, replace=False)
            draws.append((p, s, tuple(universe[i] for i in sorted(picked))))
    return draws


def _protocol_table(table: BurstTable, eval_cfg: EvalConfig) -> tuple:
    """(the bursts' truth devices encoded for ``_hcv``, and (p, subset
    index, its devices' rows in id order) per draw). Raises ValueError
    naming the lowest unlabelled burst id, and UsageError for fewer than
    two devices: no draw to score."""
    unlabelled = np.flatnonzero(np.equal(table.truth_devices, None))
    if unlabelled.size:
        raise ValueError(
            f"burst {table.ids[unlabelled[0]]} has no ground-truth label; "
            "evaluation needs a labeled dataset"
        )
    devices, codes = np.unique(table.truth_devices, return_inverse=True)
    if len(devices) < 2:
        raise UsageError(
            f"the subset protocol needs at least 2 labelled devices, found {len(devices)}"
        )
    positions = {device: np.flatnonzero(codes == i) for i, device in enumerate(devices)}
    draws = [
        (p, s, np.sort(np.concatenate([positions[device] for device in subset])))
        for p, s, subset in draw_subsets(list(positions), eval_cfg)
    ]
    return (len(devices), codes), draws


def _score(
    p: int, subset_index: int, truth: tuple[int, np.ndarray], labels: np.ndarray
) -> MetricReport:
    """Scores of the labels of one draw against its encoded truth."""
    h, c, v = _hcv(truth, labels)
    count = n_clusters(labels)
    return MetricReport(
        homogeneity=h,
        completeness=c,
        v_measure=v,
        n_clusters=count,
        delta=delta_error(count, p),
        p=p,
        subset_index=subset_index,
    )


def _score_draws(
    ie: np.ndarray, channels: np.ndarray, lengths: np.ndarray, truth: tuple[int, np.ndarray],
    dbscan_cfg: DbscanConfig, kmeans_cfg: KmeansConfig, seed: int, draws: list[tuple[int, int, np.ndarray]],
) -> list[dict[str, MetricReport]]:
    """Both methods' reports of each draw of ``run_protocol``'s table,
    sharing one fine-stage pool cache that is dropped on return."""
    n_devices, codes = truth
    pools: dict = {}
    reports = []
    for p, s, idx in draws:
        coarse = ie_only_cluster(ie[idx], dbscan_cfg)
        run_cfg = replace(kmeans_cfg, seed=child_seed(seed, STREAM_KMEANS, p, s))
        # Cut to the draw's widest burst: each pool's rows, key and sums
        # are then those of padding the draw alone.
        final = two_stage_cluster(channels[idx][:, : lengths[idx].max()], coarse, run_cfg, pools)
        labels = {METHOD_TWO_STAGE: final, METHOD_IE_ONLY: coarse}
        reports.append({m: _score(p, s, (n_devices, codes[idx]), labels[m]) for m in METHODS})
    return reports


def run_protocol(
    table: BurstTable,
    eval_cfg: EvalConfig,
    dbscan_cfg: DbscanConfig,
    kmeans_cfg: KmeansConfig,
    jobs: int = 1,
) -> dict[str, list[MetricReport]]:
    """Score both methods over every protocol draw: ``{method: reports}``
    in ``METHODS`` order, each list in (p, subset) order.

    Each draw's pool is clustered once: its coarse labels are the ie-only
    run, and their refinement, with a k-means seed derived from (protocol
    seed, p, subset), is the two-stage run, so reports are reproducible
    and independent of execution order. ``kmeans_cfg.seed`` is not read:
    every draw's k-means seed comes from ``eval_cfg.seed``. ``jobs``
    worker processes (at most one per CPU) share the draws. Raises
    ValueError for an unlabelled burst, and UsageError when the bursts
    name fewer than two devices.

    One call pads the channel vectors and encodes the truth devices
    once; a draw is its rows' positions in ``table``. Draws often refine
    the same pool, so each worker takes every ``jobs``-th draw and keeps
    one cache of prepared pools, with their D² seeding and Lloyd memos,
    for them; no cache outlives the call.
    """
    truth, draws = _protocol_table(table, eval_cfg)
    score = partial(
        _score_draws, table.ie_features, pad_matrix(table), np.diff(table.offsets), truth,
        dbscan_cfg, kmeans_cfg, eval_cfg.seed,
    )
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool_exec:
            chunks = list(pool_exec.map(score, [draws[i::jobs] for i in range(jobs)]))
    else:
        chunks = [score(draws)]
    reports = [chunks[i % len(chunks)][i // len(chunks)] for i in range(len(draws))]
    return {method: [draw[method] for draw in reports] for method in METHODS}


@dataclass(frozen=True)
class SummaryRow:
    """Per-population aggregates of the protocol reports."""

    p: int
    mean_v: float
    std_v: float
    mean_h: float
    std_h: float
    mean_c: float
    std_c: float
    rmse: float


def summarize(reports: Sequence[MetricReport]) -> list[SummaryRow]:
    """Per-p mean and standard deviation rows (population std)."""
    rows = []
    for p in sorted({r.p for r in reports}):
        batch = [r for r in reports if r.p == p]
        v = np.array([r.v_measure for r in batch])
        h = np.array([r.homogeneity for r in batch])
        c = np.array([r.completeness for r in batch])
        counts = [r.n_clusters for r in batch]
        rows.append(
            SummaryRow(
                p=p,
                mean_v=float(v.mean()),
                std_v=float(v.std()),
                mean_h=float(h.mean()),
                std_h=float(h.std()),
                mean_c=float(c.mean()),
                std_c=float(c.std()),
                rmse=rmse(counts, [p] * len(counts)),
            )
        )
    return rows


@dataclass(frozen=True)
class TuneRow:
    """One grid point of the coarse-stage hyperparameter sweep."""

    eps: float
    min_pts: int
    mean_v: float
    mean_abs_delta: float


def tune_dbscan(
    table: BurstTable,
    eps_grid: Sequence[float],
    minpts_grid: Sequence[int],
    eval_cfg: EvalConfig,
) -> list[TuneRow]:
    """Sweep the coarse stage over (eps, min_pts) on protocol subsets.

    Every grid point is scored on the same subset draws; the table is
    sorted best-first: descending mean V-measure, then ascending mean
    absolute Delta, then (eps, min_pts) for stable ties. Every grid
    point is validated before any draw is clustered. Raises UsageError
    for an empty grid, a grid point out of range, or bursts that name
    fewer than two devices.

    The draws are ``run_protocol``'s, without the channel vectors, and
    each grid point's scores are those of ``ie_only_cluster``'s labels,
    averaged in draw order. One ``_distinct_rows`` of the raw IE rows
    per call gives each burst a fingerprint id: bursts whose rows are
    equal by bytes share one. A draw's distinct rows, in
    first-occurrence order, and their weights come from
    ``_distinct_rows`` of its ids, and only those rows are min-max
    scaled. That is exact: the scaling does the same arithmetic per
    element whichever copies of a row it sees, and raw rows that scale
    to one value (0.0 and -0.0 among them) are at distance 0, so they
    share their neighbours, their weighted core test and their cluster.
    The neighbour booleans are built once per (draw, eps). Labels and
    scores are a function of the booleans and the core rows, so each
    distinct pair of them is scanned and scored once per draw.
    """
    if len(eps_grid) == 0 or len(minpts_grid) == 0:
        raise UsageError("hyperparameter grids must be non-empty")
    # Per eps, per min_pts: the grid point's config and its V-measures
    # and |Delta|s in draw order.
    grid = [
        [(DbscanConfig(eps=eps, min_pts=min_pts), [], []) for min_pts in minpts_grid]
        for eps in eps_grid
    ]
    (n_devices, codes), draws = _protocol_table(table, eval_cfg)
    fingerprints = _distinct_rows(table.ie_features)[2]
    for p, _, idx in draws:
        truth = (n_devices, codes[idx])
        first, weights, inverse = _distinct_rows(fingerprints[idx])
        distinct = normalize_ie_matrix(table.ie_features[idx[first]])
        # (neighbour pairs, core rows) -> (V, |Delta|). The counts name
        # the arrays: a larger eps keeps every pair a smaller one finds,
        # and a larger min_pts leaves out of the core every row a smaller
        # one leaves out, so within one draw two neighbour matrices, or
        # two core masks of one matrix, are equal exactly when their
        # counts are.
        scores: dict[tuple[int, int], tuple[float, int]] = {}
        for same_eps in grid:
            within, reach = _dbscan_neighbours(distinct, weights, same_eps[0][0].eps)
            pairs = int(within.sum())
            for cfg, v_measures, abs_deltas in same_eps:
                core = reach >= cfg.min_pts
                key = (pairs, int(core.sum()))
                if key not in scores:
                    labels = _dbscan_scan(within, core)
                    scores[key] = (_hcv(truth, labels[inverse])[2], abs(delta_error(n_clusters(labels), p)))
                v_measure, abs_delta = scores[key]
                v_measures.append(v_measure)
                abs_deltas.append(abs_delta)

    rows = [
        TuneRow(
            eps=float(cfg.eps),
            min_pts=int(cfg.min_pts),
            mean_v=float(np.mean(v_measures)),
            mean_abs_delta=float(np.mean(abs_deltas)),
        )
        for same_eps in grid
        for cfg, v_measures, abs_deltas in same_eps
    ]
    rows.sort(key=lambda r: (-r.mean_v, r.mean_abs_delta, r.eps, r.min_pts))
    return rows


def _fmt(x: float) -> str:
    return f"{x:.12g}"


RUN_FIELDS = ("method", "p", "subset", "h", "c", "v", "n_clusters", "delta")
SUMMARY_FIELDS = (
    "method",
    "p",
    "mean_v",
    "std_v",
    "mean_h",
    "std_h",
    "mean_c",
    "std_c",
    "rmse",
)
TUNE_FIELDS = ("eps", "min_pts", "mean_v", "mean_abs_delta")


def write_report_files(
    sections: Sequence[tuple[str, Sequence[MetricReport]]],
    runs_path,
    summary_path,
    header_comment: str | None = None,
) -> None:
    """Write per-run rows and per-p summary rows as two CSV files."""
    run_rows = (
        [method, str(r.p), str(r.subset_index), _fmt(r.homogeneity), _fmt(r.completeness),
         _fmt(r.v_measure), str(r.n_clusters), str(r.delta)]
        for method, reports in sections
        for r in reports
    )
    write_table(runs_path, RUN_FIELDS, run_rows, header_comment)
    summary_rows = (
        [method, str(row.p), _fmt(row.mean_v), _fmt(row.std_v), _fmt(row.mean_h),
         _fmt(row.std_h), _fmt(row.mean_c), _fmt(row.std_c), _fmt(row.rmse)]
        for method, reports in sections
        for row in summarize(reports)
    )
    write_table(summary_path, SUMMARY_FIELDS, summary_rows, header_comment)


def write_tuning_file(rows: Sequence[TuneRow], path, header_comment: str | None = None) -> None:
    """Write the sweep table, best grid point first."""
    table = (
        [_fmt(row.eps), str(row.min_pts), _fmt(row.mean_v), _fmt(row.mean_abs_delta)]
        for row in rows
    )
    write_table(path, TUNE_FIELDS, table, header_comment)
