"""Two-stage burst clustering.

Stage one runs DBSCAN over min-max-normalized IE fingerprints to pool
bursts with matching capabilities; stage two splits each pool with
cosine k-means over the padded channel vectors, choosing k by an elbow
rule over the distortion curve whose crossing threshold adapts to the
pool's internal cosine similarity.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .features import BurstTable, normalize_ie_matrix, pad_matrix, write_burst_rows
from .randomness import DEFAULT_SEED, STREAM_KMEANS, substream

NOISE = -1

# Fixed by the method, not tunable: k-means iteration cap and seeded
# restarts per k, and the elbow threshold 0.4 + 0.6 * (1 - max(0, s)).
MAX_ITERATIONS = 100
RESTARTS = 8
THRESHOLD_BASE = 0.4
THRESHOLD_SPAN = 0.6

# Rows of the distance matrix DBSCAN computes at a time.
DBSCAN_BLOCK_ROWS = 256


class UsageError(ValueError):
    """Settings or input a call cannot be run on as given: a setting out
    of range, an empty hyperparameter grid, or fewer than two labelled
    devices for the subset protocol (the CLI's exit code 2)."""


@dataclass(frozen=True)
class DbscanConfig:
    """Coarse-stage neighborhood radius and density threshold."""

    eps: float = 0.05
    min_pts: int = 10

    def __post_init__(self) -> None:
        if not self.eps > 0:
            raise UsageError("eps must be positive")
        if self.min_pts < 1:
            raise UsageError("min_pts must be at least 1")


@dataclass(frozen=True)
class KmeansConfig:
    """Fine-stage tunables: the largest k tried per pool and the seed."""

    k_max: int = 5
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.k_max < 1:
            raise UsageError("k_max must be at least 1")


def _distinct_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first index of each distinct row, its multiplicity, each row's
    distinct index), the distinct rows numbered in order of first
    occurrence. Rows are compared by their bytes, so 0.0 and -0.0
    differ. A 1-D array's entries are its rows; zero-width rows are all
    one row."""
    rows = np.ascontiguousarray(values)
    rows = rows.reshape(len(rows), int(np.prod(rows.shape[1:])))
    # One void scalar per row holds the row's bytes; a zero-width row has none.
    width = rows.itemsize * rows.shape[1]
    keys = rows.view(np.dtype((np.void, width)))[:, 0] if width else np.zeros(len(rows))
    _, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first)
    return first[order], counts[order], np.argsort(order)[inverse]


def _dbscan_neighbours(
    distinct: np.ndarray, weights: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """(u x u booleans: distinct rows within ``eps`` of each other, each
    row's weighted neighbour count, itself included)."""
    u = distinct.shape[0]
    # The booleans and the counts are filled DBSCAN_BLOCK_ROWS rows at a
    # time, so no u x u float or integer buffer exists. Each squared
    # distance is summed a dimension at a time in column order; another
    # order can move a pair across eps.
    within = np.empty((u, u), dtype=bool)
    reach = np.empty(u, dtype=weights.dtype)
    for start in range(0, u, DBSCAN_BLOCK_ROWS):
        block = distinct[start : start + DBSCAN_BLOCK_ROWS]
        squared = np.zeros((block.shape[0], u))
        for block_column, column in zip(block.T, distinct.T):
            squared += (block_column[:, None] - column[None, :]) ** 2
        rows = slice(start, start + block.shape[0])
        within[rows] = squared <= eps * eps
        reach[rows] = within[rows] @ weights
    return within, reach


def _dbscan_scan(within: np.ndarray, core: np.ndarray) -> np.ndarray:
    """Labels of the distinct rows: clusters grown breadth-first from
    the ``core`` rows in scan order."""
    labels = np.full(len(core), NOISE, dtype=int)
    cluster = 0
    for seed in range(len(core)):
        if labels[seed] != NOISE or not core[seed]:
            continue
        labels[seed] = cluster
        frontier = deque([seed])
        while frontier:
            point = frontier.popleft()
            if core[point]:
                reached = np.flatnonzero(within[point] & (labels == NOISE))
                labels[reached] = cluster
                frontier.extend(reached)
        cluster += 1
    return labels


def dbscan_labels(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Density-based labels over Euclidean distance.

    A point is core iff at least ``min_pts`` points (itself included)
    lie within ``eps``. Clusters are grown breadth-first from core
    points in ascending scan order, so border points attach to the
    first cluster that reaches them.

    The work runs over the distinct rows, in first-occurrence order,
    each weighted by its multiplicity. Copies of a row are at distance
    0 from each other, so they share their neighbours, their core test
    and, in scan order, their cluster: the labels are those of the scan
    over every row. Rows are compared by bytes: 0.0 and -0.0 copies are
    two distinct rows at distance 0, so the same holds of them.

    It is three steps: the distinct rows depend on ``points`` alone,
    the neighbour booleans and weighted counts also on ``eps``, and
    only the core test and scan on ``min_pts``. ``tune_dbscan`` finds
    the distinct rows from fingerprint ids, runs the neighbour step once
    per (pool, eps) and the scan once per distinct (booleans, core rows)
    of a pool.
    """
    data = np.asarray(points, dtype=float)
    first, weights, inverse = _distinct_rows(data)
    within, reach = _dbscan_neighbours(data[first], weights, eps)
    return _dbscan_scan(within, reach >= min_pts)[inverse]


def dbscan(points: np.ndarray, config: DbscanConfig) -> np.ndarray:
    """DBSCAN labels of normalized feature rows under ``config``."""
    return dbscan_labels(points, config.eps, config.min_pts)


def n_clusters(labels: np.ndarray) -> int:
    """Number of clusters in contiguous labels; noise is not a cluster."""
    return int(np.max(labels, initial=NOISE)) + 1


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0):
        raise ValueError("rows must be nonzero to cluster by direction")
    return rows / norms[:, None]


class _Pool:
    """One fine-stage pool's rows, prepared once for every k and restart
    that clusters them, and the memos of their D² seeding and Lloyd runs.

    ``ids`` numbers each row's unit row with ``_distinct_rows``: equal
    unit-row bytes share an id. ``seedings`` maps a set of picked ids to
    (the cumulative D² weights of the rows, their total); ``runs`` maps
    the ids of seeded centres, in order, to ``_lloyd``'s (result, trace);
    each result's labels fill all k clusters.
    """

    def __init__(self, rows: np.ndarray) -> None:
        self.unit = _unit_rows(rows)
        self.ids = _distinct_rows(self.unit)[2].tolist()
        self.seedings: dict[frozenset[int], tuple[np.ndarray, float]] = {}
        self.runs: dict[
            tuple[int, ...], tuple[tuple[np.ndarray, np.ndarray, float], list[float]]
        ] = {}

    def seeding(self, picked: frozenset[int], picks: list[int]) -> tuple[np.ndarray, float]:
        """(cumulative D² weights, total) of the rows given centres on
        the ``picks`` rows, whose ids are ``picked``. They depend only on
        that set: ``np.minimum`` is exact and order-free, equal unit rows
        give equal distances, and a -0.0 distance squares to +0.0."""
        state = self.seedings.get(picked)
        if state is None:
            distances = [np.maximum(1.0 - self.unit @ self.unit[row], 0.0) for row in picks]
            nearest = np.minimum.reduce(distances)
            weights = nearest * nearest
            state = self.seedings[picked] = (np.cumsum(weights), float(weights.sum()))
        return state


def _seed_rows(pool: _Pool, k: int, rng: np.random.Generator) -> list[int]:
    """Distance-weighted (D²) seeding over cosine distance: the indices
    of the rows picked as centres. The draws from ``rng`` are those of a
    plain D² loop; the weights are looked up in ``pool`` by the set of
    picked ids, which grows by one id per pick."""
    n = len(pool.ids)
    picks = [int(rng.integers(n))]
    picked: frozenset[int] = frozenset()
    for _ in range(1, k):
        picked |= {pool.ids[picks[-1]]}
        cumulative, total = pool.seeding(picked, picks)
        if total <= 1e-12:
            pick = int(rng.integers(n))
        else:
            pick = int(cumulative.searchsorted(rng.random() * total, side="right"))
            pick = min(pick, n - 1)
        picks.append(pick)
    return picks


def _distortion(own_similarity: np.ndarray) -> float:
    """Sum of squared cosine distances to the assigned centers."""
    gap = 1.0 - np.clip(own_similarity, -1.0, 1.0)
    return float((gap * gap).sum())


def _fix_empty_clusters(sims: np.ndarray, labels: np.ndarray, k: int) -> None:
    """Refill each empty cluster, in order, with the row worst fitted to
    its centre among the rows whose cluster keeps another member. With
    k <= n rows, all k clusters are then non-empty."""
    counts = np.bincount(labels, minlength=k)
    if counts.all():
        return
    own = sims[np.arange(len(labels)), labels]
    for j in np.flatnonzero(counts == 0):
        worst = int(np.where(counts[labels] > 1, own, np.inf).argmin())
        counts[labels[worst]] -= 1
        labels[worst] = j


def _update_centers(unit: np.ndarray, labels: np.ndarray, k: int, old: np.ndarray) -> np.ndarray:
    updated = old.copy()
    for j in range(k):
        mean = unit[labels == j].mean(axis=0)
        norm = np.linalg.norm(mean)
        if norm > 0:
            updated[j] = mean / norm
    return updated


def _lloyd(
    unit: np.ndarray, k: int, centers: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray, float], list[float]]:
    """Lloyd iterations from seeded ``centers``: the (labels, centers,
    distortion) result and the distortion of each iteration kept."""
    n = unit.shape[0]
    trace: list[float] = []
    best: Optional[tuple[np.ndarray, np.ndarray, float]] = None
    for _ in range(MAX_ITERATIONS):
        sims = unit @ centers.T
        labels = sims.argmax(axis=1)
        _fix_empty_clusters(sims, labels, k)
        distortion = _distortion(sims[np.arange(n), labels])
        # The spherical update optimizes the plain cosine gap; under the
        # squared metric it can overshoot, so keep the better iterate.
        if best is not None and distortion > best[2] + 1e-12:
            return best, trace
        trace.append(distortion)
        if best is not None and np.array_equal(labels, best[0]):
            return (labels, centers, distortion), trace
        best = (labels, centers, distortion)
        centers = _update_centers(unit, labels, k, centers)
    assert best is not None  # MAX_ITERATIONS >= 1
    return best, trace


def spherical_kmeans(
    rows: np.ndarray,
    k: int,
    rng: np.random.Generator,
    *,
    history: Optional[list[list[float]]] = None,
    pool: Optional[_Pool] = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """k-means on the unit sphere, maximizing cosine similarity. Each
    of the k clusters of the result is non-empty.

    Runs ``RESTARTS`` restarts seeded from ``rng`` and keeps the lowest
    distortion (earlier run wins ties). ``pool``, the ``rows`` prepared
    by ``_refine_labels``, carries the seeding and Lloyd memos across
    every call on the same rows; without it the call prepares its own.
    A restart whose seeded centres repeat an earlier run's reuses that
    Lloyd run: the iterations draw nothing from ``rng`` and depend only
    on the unit rows and the centres, which the centres' unit-row ids
    fix. The result may be shared with other calls on the same pool and
    must not be changed. ``history``, when given, still receives one
    per-iteration distortion trace per restart.
    """
    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("expected a non-empty row matrix")
    if not 1 <= k <= data.shape[0]:
        raise ValueError(f"k={k} outside [1, {data.shape[0]}]")
    if pool is None:
        pool = _Pool(data)
    best: Optional[tuple[np.ndarray, np.ndarray, float]] = None
    for _ in range(RESTARTS):
        picks = _seed_rows(pool, k, rng)
        key = tuple(pool.ids[row] for row in picks)
        if key not in pool.runs:
            pool.runs[key] = _lloyd(pool.unit, k, pool.unit[picks])
        result, trace = pool.runs[key]
        if history is not None:
            history.append(list(trace))
        if best is None or result[2] < best[2]:
            best = result
    assert best is not None
    return best


def dynamic_threshold(avg_similarity: float) -> float:
    """Elbow crossing threshold adapted to a cluster's cohesion."""
    return THRESHOLD_BASE + THRESHOLD_SPAN * (1.0 - max(0.0, avg_similarity))


# Total distortion drop below this is indistinguishable from the
# floating-point dust a curve over identical rows produces.
FLAT_CURVE_TOLERANCE = 1e-9


def elbow_select_k(distortions: Sequence[float], threshold: float) -> int:
    """Pick k from the distortion curve D(1..k_max).

    The curve is made non-increasing by running minima; the drops are
    normalized to sum to one and accumulated, and the smallest k >= 2
    whose cumulative drop reaches ``threshold`` wins. A flat curve, or
    a threshold no cumulative drop reaches, selects k = 1.
    """
    if len(distortions) == 0:
        raise ValueError("need at least one distortion value")
    floor = []
    running = float("inf")
    for value in distortions:
        running = min(running, float(value))
        floor.append(running)
    drops = [floor[i - 1] - floor[i] for i in range(1, len(floor))]
    total = sum(drops)
    if total <= FLAT_CURVE_TOLERANCE:
        return 1
    cumulative = 0.0
    for i, drop in enumerate(drops):
        cumulative += drop / total
        if cumulative >= threshold - 1e-12:
            return i + 2
    return 1


def average_pairwise_similarity(rows: np.ndarray) -> float:
    """Mean cosine similarity over unordered row pairs (1.0 for one row)."""
    data = np.asarray(rows, dtype=float)
    if data.shape[0] == 1:
        return 1.0
    unit = _unit_rows(data)
    gram = np.clip(unit @ unit.T, -1.0, 1.0)
    upper = np.triu_indices(data.shape[0], k=1)
    return float(gram[upper].mean())


def _refine_labels(
    rows: np.ndarray,
    config: KmeansConfig,
    seed_key: tuple[int, ...],
    pools: dict,
) -> np.ndarray:
    """Fine-stage labels of one pool's rows: k non-empty clusters
    numbered 0..k-1, k chosen by the elbow. ``pools`` maps a pool's
    (shape, bytes) to its entry: the k cap, the elbow threshold and the
    prepared ``_Pool``, the last two None for a pool of one distinct
    row. The shape is part of the key because each protocol draw cuts
    its rows to its own widest burst."""
    if config.k_max == 1:
        return np.zeros(rows.shape[0], dtype=int)
    key = (rows.shape, rows.tobytes())
    if key not in pools:
        # Once k reaches the pool's distinct rows, D² seeding has a centre on
        # each and the distortion is zero, so the elbow never picks a larger k.
        cap = len(_distinct_rows(rows)[0])
        pools[key] = (cap, None, None) if cap == 1 else (
            cap, dynamic_threshold(average_pairwise_similarity(rows)), _Pool(rows)
        )
    cap, threshold, pool = pools[key]
    if pool is None:
        return np.zeros(rows.shape[0], dtype=int)
    labelings = []
    distortions = []
    for k in range(1, min(config.k_max, cap) + 1):
        rng = substream(config.seed, STREAM_KMEANS, *seed_key, k)
        labels, _, distortion = spherical_kmeans(rows, k, rng, pool=pool)
        labelings.append(labels)
        distortions.append(distortion)
    return labelings[elbow_select_k(distortions, threshold) - 1]


def ie_only_cluster(ie_features: Sequence[Sequence[float]], dbscan_cfg: DbscanConfig) -> np.ndarray:
    """Coarse stage alone: DBSCAN over the raw IE fingerprint rows
    ``ie_features``, min-max normalized among themselves. Labels follow
    the rows given (noise = ``NOISE``)."""
    return dbscan(normalize_ie_matrix(ie_features), dbscan_cfg)


def two_stage_cluster(
    channels: np.ndarray,
    coarse: np.ndarray,
    kmeans_cfg: KmeansConfig,
    pools: Optional[dict] = None,
) -> np.ndarray:
    """Fine stage: refine the ``coarse`` labels of the zero-padded
    channel-vector rows ``channels`` into final labels of the same rows.

    Each coarse cluster is refined independently into k sub-clusters,
    all non-empty, which take the next k final labels in coarse-label
    order. Noise rows stay noise and are excluded from the cluster
    count. Raises ValueError unless ``coarse`` holds one label per row,
    each ``NOISE`` or a cluster of 0..n-1 with none skipped. ``pools``,
    a dict the caller owns (``run_protocol`` keeps one per run), shares
    each pool's entry and k-means memos between calls that refine the
    same rows; without it the call keeps its own.
    """
    pools = {} if pools is None else pools
    if len(coarse) != len(channels):
        raise ValueError(f"{len(coarse)} coarse labels for {len(channels)} rows")
    if np.any(coarse < NOISE) or not np.bincount(coarse[coarse != NOISE]).all():
        raise ValueError("coarse labels must be NOISE or clusters numbered 0..n-1 with none skipped")
    final = np.full(len(coarse), NOISE, dtype=int)
    next_label = 0
    for c in range(n_clusters(coarse)):
        members = np.flatnonzero(coarse == c)
        sub = _refine_labels(channels[members], kmeans_cfg, seed_key=(c,), pools=pools)
        final[members] = next_label + sub
        next_label += n_clusters(sub)
    return final


def two_stage_labelings(
    table: BurstTable,
    dbscan_cfg: DbscanConfig,
    kmeans_cfg: KmeansConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """(coarse, final) labels of the full two-stage pipeline, one per
    row of ``table``: in ascending burst-id order."""
    coarse = ie_only_cluster(table.ie_features, dbscan_cfg)
    return coarse, two_stage_cluster(pad_matrix(table), coarse, kmeans_cfg)


LABELING_FIELDS = ("burst_id", "source_mac", "truth_device", "coarse_label", "final_label")


def write_labeling_file(
    table: BurstTable,
    coarse: np.ndarray,
    final: np.ndarray,
    path,
    header_comment: str | None = None,
) -> None:
    """CSV of per-burst coarse and final labels (noise rendered as -1),
    one row per row of ``table``, as ``two_stage_labelings`` returns
    them: in ascending burst-id order."""
    coarse, final = np.asarray(coarse), np.asarray(final)
    if not len(coarse) == len(final) == len(table):
        raise ValueError("coarse and final need one label per burst")
    labels = [list(map(str, coarse.tolist())), list(map(str, final.tolist()))]
    write_burst_rows(table, path, LABELING_FIELDS, labels, header_comment)
