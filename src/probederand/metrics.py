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
from typing import Sequence

import numpy as np

from .clustering import (
    DbscanConfig,
    KmeansConfig,
    UsageError,
    _dbscan_neighbours,
    _dbscan_prepare,
    _dbscan_scan,
    _ie_rows,
    ie_only_cluster,
    n_clusters,
    two_stage_cluster,
)
from .features import Burst, write_table
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


def group_by_device(bursts: Sequence[Burst]) -> dict[str, list[Burst]]:
    """Bursts keyed by ground-truth device, rejecting unlabeled input."""
    grouped: dict[str, list[Burst]] = {}
    for burst in bursts:
        if burst.truth_device is None:
            raise ValueError(
                f"burst {burst.burst_id} has no ground-truth label; "
                "evaluation needs a labeled dataset"
            )
        grouped.setdefault(burst.truth_device, []).append(burst)
    return grouped


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


def _protocol_pools(
    bursts: Sequence[Burst], eval_cfg: EvalConfig
) -> list[tuple[int, int, list[Burst]]]:
    """(p, subset index, pooled bursts in id order) for every draw.

    Raises UsageError when the bursts name fewer than two devices, which
    leaves the protocol no draw to score.
    """
    by_device = group_by_device(bursts)
    if len(by_device) < 2:
        raise UsageError(
            f"the subset protocol needs at least 2 labelled devices, found {len(by_device)}"
        )
    return [
        (p, s, sorted((b for name in subset for b in by_device[name]), key=lambda b: b.burst_id))
        for p, s, subset in draw_subsets(list(by_device), eval_cfg)
    ]


def _truth_codes(pool: list[Burst]) -> tuple[int, np.ndarray]:
    """The pool's ground-truth devices (id order), encoded for ``_score``."""
    return _encode([b.truth_device for b in pool])


def _score(
    p: int, subset_index: int, truth: tuple[int, np.ndarray], labels: np.ndarray
) -> MetricReport:
    """Scores of the labels of one pool against its ``_truth_codes``."""
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


def _score_subset(
    task: tuple[int, int, list[Burst], DbscanConfig, KmeansConfig], pools: dict
) -> dict[str, MetricReport]:
    p, subset_index, pool, dbscan_cfg, kmeans_cfg = task
    coarse = ie_only_cluster(pool, dbscan_cfg)
    final = two_stage_cluster(pool, coarse, kmeans_cfg, pools=pools)
    truth = _truth_codes(pool)
    return {
        METHOD_TWO_STAGE: _score(p, subset_index, truth, final),
        METHOD_IE_ONLY: _score(p, subset_index, truth, coarse),
    }


def _score_draws(
    tasks: list[tuple[int, int, list[Burst], DbscanConfig, KmeansConfig]],
) -> list[dict[str, MetricReport]]:
    """``_score_subset`` of each task, in order, sharing one fine-stage
    pool cache that is dropped on return."""
    pools: dict = {}
    return [_score_subset(task, pools) for task in tasks]


def run_protocol(
    bursts: Sequence[Burst],
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
    UsageError when the bursts name fewer than two devices.

    Draws often refine the same fine-stage pool: a coarse pool is a
    union of whole devices, and the same devices are drawn together
    again. Each worker takes every ``jobs``-th draw and keeps one cache
    of prepared pools, with their D² seeding and Lloyd memos, for its
    draws; the caches are dropped before this call returns.
    """
    tasks = []
    for p, s, pool in _protocol_pools(bursts, eval_cfg):
        run_cfg = replace(kmeans_cfg, seed=child_seed(eval_cfg.seed, STREAM_KMEANS, p, s))
        tasks.append((p, s, pool, dbscan_cfg, run_cfg))
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool_exec:
            chunks = list(pool_exec.map(_score_draws, [tasks[i::jobs] for i in range(jobs)]))
    else:
        chunks = [_score_draws(tasks)]
    draws = [chunks[i % len(chunks)][i // len(chunks)] for i in range(len(tasks))]
    return {method: [draw[method] for draw in draws] for method in METHODS}


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
    bursts: Sequence[Burst],
    eps_grid: Sequence[float],
    minpts_grid: Sequence[int],
    eval_cfg: EvalConfig,
) -> list[TuneRow]:
    """Sweep the coarse stage over (eps, min_pts) on protocol subsets.

    Every grid point is scored on the same subset draws; the table is
    sorted best-first: descending mean V-measure, then ascending mean
    absolute Delta, then (eps, min_pts) for stable ties. Every grid
    point is validated before any pool is clustered. Raises UsageError
    for an empty grid, a grid point out of range, or bursts that name
    fewer than two devices.

    Each pool is normalized, collapsed to its distinct rows and has its
    truth labels encoded once; its neighbour booleans are built once
    per eps, and only the core test and scan run per grid point. The
    labels are those ``ie_only_cluster`` gives at each grid point, and
    each grid point's scores are averaged in pool order, as when every
    grid point clusters every pool from scratch.
    """
    if len(eps_grid) == 0 or len(minpts_grid) == 0:
        raise UsageError("hyperparameter grids must be non-empty")
    # Per eps, per min_pts: the grid point's config and its V-measures
    # and |Delta|s in pool order.
    grid = [
        [(DbscanConfig(eps=eps, min_pts=min_pts), [], []) for min_pts in minpts_grid]
        for eps in eps_grid
    ]
    for p, _, pool in _protocol_pools(bursts, eval_cfg):
        truth = _truth_codes(pool)
        distinct, weights, inverse = _dbscan_prepare(_ie_rows(pool))
        for same_eps in grid:
            within, reach = _dbscan_neighbours(distinct, weights, same_eps[0][0].eps)
            for cfg, v_measures, abs_deltas in same_eps:
                labels = _dbscan_scan(within, reach, cfg.min_pts)[inverse]
                v_measures.append(_hcv(truth, labels)[2])
                abs_deltas.append(abs(delta_error(n_clusters(labels), p)))

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
        [method, r.p, r.subset_index, _fmt(r.homogeneity), _fmt(r.completeness),
         _fmt(r.v_measure), r.n_clusters, r.delta]
        for method, reports in sections
        for r in reports
    )
    write_table(runs_path, RUN_FIELDS, run_rows, header_comment)
    summary_rows = (
        [method, row.p, _fmt(row.mean_v), _fmt(row.std_v), _fmt(row.mean_h),
         _fmt(row.std_h), _fmt(row.mean_c), _fmt(row.std_c), _fmt(row.rmse)]
        for method, reports in sections
        for row in summarize(reports)
    )
    write_table(summary_path, SUMMARY_FIELDS, summary_rows, header_comment)


def write_tuning_file(rows: Sequence[TuneRow], path, header_comment: str | None = None) -> None:
    """Write the sweep table, best grid point first."""
    table = (
        [_fmt(row.eps), row.min_pts, _fmt(row.mean_v), _fmt(row.mean_abs_delta)]
        for row in rows
    )
    write_table(path, TUNE_FIELDS, table, header_comment)
