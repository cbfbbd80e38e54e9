"""Plain-Python reference implementations the tests check the library against.

They are deliberately naive (math.dist loops, Counter-based entropies,
an IE walk that builds one (id, body) pair per element) so they share
no code with the paths they check. The shortcut references are the
exception, and each drops only the shortcut it checks:
``reference_refine_labels`` reuses the library's k-means and elbow with
no distinct-row cap on k; ``all_rows_dbscan`` is the library's vectorized
kernel before it ran over distinct rows; ``plain_spherical_kmeans``
reuses the library's Lloyd loop and runs it for every restart, seeded by
``plain_seed_centers``, a D² loop with no memo of seeding states or of
repeated seeded centres; ``unguarded_fix_empty_clusters`` is the
k-means refill rule that may take a cluster's only member, which
``_fix_empty_clusters`` must agree with wherever it takes none;
``reference_run_protocol`` reuses the library's
stage functions and scoring, and per draw of ``reference_pools`` groups,
sorts, pads and normalizes the draw's own bursts, encodes their truth
labels and refines them with a fresh fine-stage cache;
``per_point_tune`` rests on the same pools and clusters every pool from
scratch at every grid point.
"""

import math
from collections import Counter, deque
from dataclasses import replace

import numpy as np

from probederand.clustering import (
    DBSCAN_BLOCK_ROWS,
    NOISE,
    RESTARTS,
    DbscanConfig,
    _lloyd,
    _unit_rows,
    average_pairwise_similarity,
    dynamic_threshold,
    elbow_select_k,
    ie_only_cluster,
    spherical_kmeans,
    two_stage_cluster,
)
from probederand.features import pad_matrix
from probederand.metrics import (
    METHOD_IE_ONLY,
    METHOD_TWO_STAGE,
    METHODS,
    TuneRow,
    _encode,
    _score,
    draw_subsets,
    group_by_device,
)
from probederand.randomness import STREAM_KMEANS, child_seed, substream

IE_DS_PARAMETER_SET, IE_HT, IE_EXTENDED, IE_VENDOR = 3, 45, 127, 221


def reference_parse_ies(region):
    """(id, body) pairs of the whole elements of an IE region, and 1 when
    an element overruns the region (the walk stops there), else 0."""
    elements = []
    i = 0
    while i < len(region):
        if i + 2 > len(region) or i + 2 + region[i + 1] > len(region):
            return elements, 1
        length = region[i + 1]
        elements.append((region[i], bytes(region[i + 2 : i + 2 + length])))
        i += 2 + length
    return elements, 0


def reference_ie_features(elements):
    """Byte sums of the first HT and first Extended Capabilities element
    (0 when absent) and of every Vendor-Specific element."""
    ht = [body for ie_id, body in elements if ie_id == IE_HT]
    ext = [body for ie_id, body in elements if ie_id == IE_EXTENDED]
    vendor = [body for ie_id, body in elements if ie_id == IE_VENDOR]
    return (
        sum(ht[0]) if ht else 0,
        sum(ext[0]) if ext else 0,
        sum(sum(body) for body in vendor),
    )


def reference_ds_channel(elements):
    """First byte of the first DS Parameter Set with a body, else None."""
    for ie_id, body in elements:
        if ie_id == IE_DS_PARAMETER_SET and len(body) >= 1:
            return body[0]
    return None


def decorated_merge(streams):
    """(frame, tag) pairs of (frames, tag) streams, ordered by sorting
    explicit (timestamp, channel, input position) keys."""
    decorated = []
    position = 0
    for frames, tag in streams:
        for frame in frames:
            decorated.append((frame.timestamp, frame.capture_channel, position, frame, tag))
            position += 1
    decorated.sort(key=lambda item: item[:3])
    return [(frame, tag) for _, _, _, frame, tag in decorated]


def reference_dbscan(points, eps, min_pts):
    """Brute-force neighborhood scan + BFS expansion, pure Python."""
    points = [tuple(p) for p in points]
    n = len(points)
    neighbors = [
        [j for j in range(n) if math.dist(points[i], points[j]) <= eps]
        for i in range(n)
    ]
    core = [len(nb) >= min_pts for nb in neighbors]
    labels = [NOISE] * n
    cluster = 0
    for i in range(n):
        if labels[i] != NOISE or not core[i]:
            continue
        labels[i] = cluster
        queue = deque([i])
        while queue:
            q = queue.popleft()
            if not core[q]:
                continue
            for j in neighbors[q]:
                if labels[j] == NOISE:
                    labels[j] = cluster
                    queue.append(j)
        cluster += 1
    return labels


def all_rows_dbscan(points, eps, min_pts):
    """DBSCAN labels from an n x n neighbour matrix over every row, with no
    collapsing of repeated rows: the same column-order squared sums, row
    blocks and masked expansion as ``dbscan_labels``."""
    data = np.asarray(points, dtype=float)
    n = data.shape[0]
    within = np.empty((n, n), dtype=bool)
    for start in range(0, n, DBSCAN_BLOCK_ROWS):
        block = data[start : start + DBSCAN_BLOCK_ROWS]
        squared = np.zeros((block.shape[0], n))
        for block_column, column in zip(block.T, data.T):
            squared += (block_column[:, None] - column[None, :]) ** 2
        within[start : start + block.shape[0]] = squared <= eps * eps
    core = within.sum(axis=1) >= min_pts

    labels = np.full(n, NOISE, dtype=int)
    cluster = 0
    for seed in range(n):
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


def reference_refine_labels(rows, config, seed_key):
    """Fine-stage labels trying every k up to ``min(k_max, n)``, with no
    cap at the pool's distinct rows."""
    threshold = dynamic_threshold(average_pairwise_similarity(rows))
    labelings = []
    distortions = []
    for k in range(1, min(config.k_max, len(rows)) + 1):
        rng = substream(config.seed, STREAM_KMEANS, *seed_key, k)
        labels, _, distortion = spherical_kmeans(rows, k, rng)
        labelings.append(labels)
        distortions.append(distortion)
    return labelings[elbow_select_k(distortions, threshold) - 1]


def plain_seed_centers(unit, k, rng):
    """Distance-weighted (D²) seeding over cosine distance: the picked
    row indices, every distance computed afresh."""
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
    return chosen


def plain_spherical_kmeans(rows, k, rng, history):
    """``spherical_kmeans`` with every restart seeded by
    ``plain_seed_centers`` and run through Lloyd: the lowest distortion
    wins, the earlier restart on ties, and ``history`` gets each
    restart's trace."""
    unit = _unit_rows(np.asarray(rows, dtype=float))
    best = None
    for _ in range(RESTARTS):
        result, trace = _lloyd(unit, k, unit[plain_seed_centers(unit, k, rng)])
        history.append(trace)
        if best is None or result[2] < best[2]:
            best = result
    return best


def unguarded_fix_empty_clusters(sims, labels, k):
    """Refill each empty cluster, in order, with the worst-fitted row not
    yet moved, even when that row is its cluster's only member (which
    can leave that cluster empty). Changes ``labels`` in place; returns
    whether it took a cluster's only member."""
    took_sole = False
    taken = set()
    for j in range(k):
        if np.any(labels == j):
            continue
        own = sims[np.arange(len(labels)), labels].copy()
        if taken:
            own[list(taken)] = np.inf
        worst = int(own.argmin())
        took_sole |= int(np.count_nonzero(labels == labels[worst])) == 1
        labels[worst] = j
        taken.add(worst)
    return took_sole


def reference_pools(bursts, eval_cfg):
    """(p, subset index, the draw's bursts in ascending id order) for
    every protocol draw, each list built afresh."""
    by_device = group_by_device(bursts)
    if len(by_device) < 2:
        raise ValueError(
            f"the subset protocol needs at least 2 labelled devices, found {len(by_device)}"
        )
    return [
        (p, s, sorted((b for name in subset for b in by_device[name]), key=lambda b: b.burst_id))
        for p, s, subset in draw_subsets(list(by_device), eval_cfg)
    ]


def reference_score(p, s, pool, labels):
    """``_score`` of one pool's labels against its own truth encoding."""
    return _score(p, s, _encode([b.truth_device for b in pool]), labels)


def reference_run_protocol(bursts, eval_cfg, dbscan_cfg, kmeans_cfg):
    """``run_protocol`` clustering each draw's bursts on their own: the
    IE rows normalized among the draw's bursts, the channel vectors
    padded to the draw's widest burst, and a fresh fine-stage cache."""
    reports = {method: [] for method in METHODS}
    for p, s, pool in reference_pools(bursts, eval_cfg):
        coarse = ie_only_cluster([b.ie_features for b in pool], dbscan_cfg)
        run_cfg = replace(kmeans_cfg, seed=child_seed(eval_cfg.seed, STREAM_KMEANS, p, s))
        final = two_stage_cluster(pad_matrix([b.channel_vector for b in pool]), coarse, run_cfg)
        reports[METHOD_TWO_STAGE].append(reference_score(p, s, pool, final))
        reports[METHOD_IE_ONLY].append(reference_score(p, s, pool, coarse))
    return reports


def per_point_tune(bursts, eps_grid, minpts_grid, eval_cfg):
    """``tune_dbscan`` running ``ie_only_cluster`` on every pool at every
    grid point, in grid order."""
    if len(eps_grid) == 0 or len(minpts_grid) == 0:
        raise ValueError("hyperparameter grids must be non-empty")
    pools = reference_pools(bursts, eval_cfg)

    rows = []
    for eps in eps_grid:
        for min_pts in minpts_grid:
            cfg = DbscanConfig(eps=eps, min_pts=min_pts)
            reports = [
                reference_score(p, s, pool, ie_only_cluster([b.ie_features for b in pool], cfg))
                for p, s, pool in pools
            ]
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


def canonical_partition(labels):
    """Frozen partition of indices by label, noise kept apart."""
    groups = {}
    for idx, label in enumerate(labels):
        groups.setdefault(label, set()).add(idx)
    noise = frozenset(groups.pop(NOISE, set()))
    return frozenset(frozenset(g) for g in groups.values()), noise


def oracle_hcv(truth, pred):
    """Entropy-based scores from the contingency table, plain Python."""
    n = len(truth)
    joint = Counter(zip(truth, pred))
    t_counts = Counter(truth)
    p_counts = Counter(pred)

    def entropy(counts):
        return -sum(c / n * math.log(c / n) for c in counts.values())

    h_truth = entropy(t_counts)
    h_pred = entropy(p_counts)
    h_t_given_p = -sum(c / n * math.log(c / p_counts[p]) for (t, p), c in joint.items())
    h_p_given_t = -sum(c / n * math.log(c / t_counts[t]) for (t, p), c in joint.items())
    h = 1.0 if h_truth == 0 else 1.0 - h_t_given_p / h_truth
    c = 1.0 if h_pred == 0 else 1.0 - h_p_given_t / h_pred
    v = 0.0 if h + c == 0 else 2 * h * c / (h + c)
    return h, c, v
