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
            raise ValueError("d must be at least 1")


def _contingency(truth: Sequence, pred: Sequence) -> np.ndarray:
    t_classes, t_idx = np.unique(np.asarray(truth), return_inverse=True)
    p_classes, p_idx = np.unique(np.asarray(pred), return_inverse=True)
    table = np.zeros((len(t_classes), len(p_classes)), dtype=float)
    np.add.at(table, (t_idx, p_idx), 1.0)
    return table


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
    table = _contingency(truth, pred)
    h_truth = _entropy(table.sum(axis=1))
    h_pred = _entropy(table.sum(axis=0))
    h = 1.0 if h_truth == 0 else 1.0 - _conditional_entropy(table) / h_truth
    c = 1.0 if h_pred == 0 else 1.0 - _conditional_entropy(table.T) / h_pred
    h = min(1.0, max(0.0, h))
    c = min(1.0, max(0.0, c))
    v = 0.0 if h + c == 0 else 2.0 * h * c / (h + c)
    return float(h), float(c), float(v)


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
    """(p, subset index, pooled bursts in id order) for every draw."""
    by_device = group_by_device(bursts)
    return [
        (p, s, sorted((b for name in subset for b in by_device[name]), key=lambda b: b.burst_id))
        for p, s, subset in draw_subsets(list(by_device), eval_cfg)
    ]


def _score(p: int, subset_index: int, pool: list[Burst], labels: np.ndarray) -> MetricReport:
    """Scores of the labels of one pool (bursts and labels in id order)."""
    h, c, v = homogeneity_completeness_v([b.truth_device for b in pool], labels)
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
    task: tuple[int, int, list[Burst], DbscanConfig, KmeansConfig],
) -> dict[str, MetricReport]:
    p, subset_index, pool, dbscan_cfg, kmeans_cfg = task
    coarse = ie_only_cluster(pool, dbscan_cfg)
    final = two_stage_cluster(pool, coarse, kmeans_cfg)
    return {
        METHOD_TWO_STAGE: _score(p, subset_index, pool, final),
        METHOD_IE_ONLY: _score(p, subset_index, pool, coarse),
    }


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
    and independent of execution order. ``jobs`` worker processes (at
    most one per CPU) share the draws.
    """
    tasks = []
    for p, s, pool in _protocol_pools(bursts, eval_cfg):
        run_cfg = replace(kmeans_cfg, seed=child_seed(eval_cfg.seed, STREAM_KMEANS, p, s))
        tasks.append((p, s, pool, dbscan_cfg, run_cfg))
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool_exec:
            draws = list(pool_exec.map(_score_subset, tasks))
    else:
        draws = [_score_subset(task) for task in tasks]
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
    absolute Delta, then (eps, min_pts) for stable ties.
    """
    if len(eps_grid) == 0 or len(minpts_grid) == 0:
        raise ValueError("hyperparameter grids must be non-empty")
    pools = _protocol_pools(bursts, eval_cfg)

    rows = []
    for eps in eps_grid:
        for min_pts in minpts_grid:
            cfg = DbscanConfig(eps=eps, min_pts=min_pts)
            reports = [_score(p, s, pool, ie_only_cluster(pool, cfg)) for p, s, pool in pools]
            rows.append(
                TuneRow(
                    eps=float(eps),
                    min_pts=int(min_pts),
                    mean_v=float(np.mean([r.v_measure for r in reports])),
                    mean_abs_delta=float(np.mean([abs(r.delta) for r in reports])),
                )
            )
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
