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

from .features import Burst, normalize_ie_matrix, pad_matrix, write_table
from .pcap import mac_to_str
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


@dataclass(frozen=True)
class DbscanConfig:
    """Coarse-stage neighborhood radius and density threshold."""

    eps: float = 0.05
    min_pts: int = 10

    def __post_init__(self) -> None:
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.min_pts < 1:
            raise ValueError("min_pts must be at least 1")


@dataclass(frozen=True)
class KmeansConfig:
    """Fine-stage tunables: the largest k tried per pool and the seed."""

    k_max: int = 5
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")


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
    over every row. Rows are compared by value, so 0.0 and -0.0 are one
    row; both give the same squared differences.
    """
    data = np.asarray(points, dtype=float)
    _, first, inverse, counts = np.unique(
        data, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    distinct = data[first[order]]
    weights = counts[order]
    u = distinct.shape[0]
    # The u x u booleans and the weighted neighbour counts are filled
    # DBSCAN_BLOCK_ROWS rows at a time, so no u x u float or integer
    # buffer exists. Each squared distance is summed a dimension at a
    # time in column order; another order can move a pair across eps.
    within = np.empty((u, u), dtype=bool)
    core = np.empty(u, dtype=bool)
    for start in range(0, u, DBSCAN_BLOCK_ROWS):
        block = distinct[start : start + DBSCAN_BLOCK_ROWS]
        squared = np.zeros((block.shape[0], u))
        for block_column, column in zip(block.T, distinct.T):
            squared += (block_column[:, None] - column[None, :]) ** 2
        rows = slice(start, start + block.shape[0])
        within[rows] = squared <= eps * eps
        core[rows] = within[rows] @ weights >= min_pts

    labels = np.full(u, NOISE, dtype=int)
    cluster = 0
    for seed in range(u):
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
    return labels[np.argsort(order)[inverse]]


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


def _seed_centers(unit: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Distance-weighted (D²) seeding over cosine distance."""
    n = unit.shape[0]
    chosen = [int(rng.integers(n))]
    nearest = np.maximum(1.0 - unit @ unit[chosen[0]], 0.0)
    for _ in range(1, k):
        weights = nearest * nearest
        total = float(weights.sum())
        if total <= 1e-12:
            pick = int(rng.integers(n))
        else:
            pick = int(np.searchsorted(np.cumsum(weights), rng.random() * total, side="right"))
            pick = min(pick, n - 1)
        chosen.append(pick)
        nearest = np.minimum(nearest, np.maximum(1.0 - unit @ unit[pick], 0.0))
    return unit[chosen].copy()


def _distortion(own_similarity: np.ndarray) -> float:
    """Sum of squared cosine distances to the assigned centers."""
    gap = 1.0 - np.clip(own_similarity, -1.0, 1.0)
    return float((gap * gap).sum())


def _fix_empty_clusters(sims: np.ndarray, labels: np.ndarray, k: int) -> None:
    """Reseed each empty cluster with the row worst-fitted to its center."""
    if np.bincount(labels, minlength=k).all():
        return
    taken: set[int] = set()
    for j in range(k):
        if np.any(labels == j):
            continue
        own = sims[np.arange(len(labels)), labels].copy()
        if taken:
            own[list(taken)] = np.inf
        worst = int(own.argmin())
        labels[worst] = j
        taken.add(worst)


def _update_centers(unit: np.ndarray, labels: np.ndarray, k: int, old: np.ndarray) -> np.ndarray:
    updated = old.copy()
    for j in range(k):
        members = unit[labels == j]
        if len(members):
            mean = members.mean(axis=0)
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
) -> tuple[np.ndarray, np.ndarray, float]:
    """k-means on the unit sphere, maximizing cosine similarity.

    Runs ``RESTARTS`` restarts seeded from ``rng`` and keeps the lowest
    distortion (earlier run wins ties). A restart whose seeded centres
    repeat an earlier restart's reuses that Lloyd run: the iterations
    draw nothing from ``rng`` and depend only on the rows and centres.
    ``history``, when given, still receives one per-iteration distortion
    trace per restart.
    """
    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("expected a non-empty row matrix")
    if not 1 <= k <= data.shape[0]:
        raise ValueError(f"k={k} outside [1, {data.shape[0]}]")
    unit = _unit_rows(data)
    runs: dict[bytes, tuple[tuple[np.ndarray, np.ndarray, float], list[float]]] = {}
    best: Optional[tuple[np.ndarray, np.ndarray, float]] = None
    for _ in range(RESTARTS):
        centers = _seed_centers(unit, k, rng)
        key = centers.tobytes()
        if key not in runs:
            runs[key] = _lloyd(unit, k, centers)
        result, trace = runs[key]
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
    rows: np.ndarray, config: KmeansConfig, seed_key: tuple[int, ...]
) -> np.ndarray:
    # Once k reaches the pool's distinct rows, D² seeding has a centre on
    # each and the distortion is zero, so the elbow never picks a larger k.
    k_max = min(config.k_max, len({row.tobytes() for row in rows}))
    if k_max == 1:
        return np.zeros(rows.shape[0], dtype=int)
    threshold = dynamic_threshold(average_pairwise_similarity(rows))
    labelings = []
    distortions = []
    for k in range(1, k_max + 1):
        rng = substream(config.seed, STREAM_KMEANS, *seed_key, k)
        labels, _, distortion = spherical_kmeans(rows, k, rng)
        labelings.append(labels)
        distortions.append(distortion)
    return labelings[elbow_select_k(distortions, threshold) - 1]


def _sorted_bursts(bursts: Sequence[Burst]) -> list[Burst]:
    if len(bursts) == 0:
        raise ValueError("need at least one burst")
    ordered = sorted(bursts, key=lambda b: b.burst_id)
    if len({b.burst_id for b in ordered}) != len(ordered):
        raise ValueError("burst ids must be unique")
    return ordered


def ie_only_cluster(bursts: Sequence[Burst], dbscan_cfg: DbscanConfig) -> np.ndarray:
    """Coarse stage alone: DBSCAN over normalized IE fingerprints.

    Labels are in ascending burst-id order (noise = ``NOISE``).
    """
    ordered = _sorted_bursts(bursts)
    return dbscan(normalize_ie_matrix([b.ie_features for b in ordered]), dbscan_cfg)


def two_stage_cluster(
    bursts: Sequence[Burst], coarse: np.ndarray, kmeans_cfg: KmeansConfig
) -> np.ndarray:
    """Fine stage: refine the ``coarse`` labels (ascending burst-id
    order, as ``ie_only_cluster`` returns them) into the final labels.

    Each coarse cluster is refined independently; final labels are the
    disjoint union of all sub-clusters, renumbered contiguously. Noise
    bursts stay noise and are excluded from the cluster count.
    """
    ordered = _sorted_bursts(bursts)
    if len(coarse) != len(ordered):
        raise ValueError(f"{len(coarse)} coarse labels for {len(ordered)} bursts")
    padded = pad_matrix([b.channel_vector for b in ordered])
    final = np.full(len(ordered), NOISE, dtype=int)
    next_label = 0
    for c in range(n_clusters(coarse)):
        members = np.flatnonzero(coarse == c)
        sub = _refine_labels(padded[members], kmeans_cfg, seed_key=(c,))
        for s in range(int(sub.max()) + 1):
            final[members[sub == s]] = next_label
            next_label += 1
    return final


def two_stage_labelings(
    bursts: Sequence[Burst],
    dbscan_cfg: DbscanConfig,
    kmeans_cfg: KmeansConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """(coarse, final) labels of the full two-stage pipeline, in
    ascending burst-id order."""
    coarse = ie_only_cluster(bursts, dbscan_cfg)
    return coarse, two_stage_cluster(bursts, coarse, kmeans_cfg)


LABELING_FIELDS = ("burst_id", "source_mac", "truth_device", "coarse_label", "final_label")


def write_labeling_file(
    bursts: Sequence[Burst],
    coarse: np.ndarray,
    final: np.ndarray,
    path,
    header_comment: str | None = None,
) -> None:
    """CSV of per-burst coarse and final labels (noise rendered as -1).

    The labels are in ascending burst-id order, as the clustering
    functions return them.
    """
    rows = (
        [b.burst_id, mac_to_str(b.source_mac), b.truth_device or "", c, f]
        for b, c, f in zip(_sorted_bursts(bursts), coarse, final, strict=True)
    )
    write_table(path, LABELING_FIELDS, rows, header_comment)
