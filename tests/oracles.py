"""Plain-Python reference implementations the tests check the library against.

They are deliberately naive (math.dist loops, Counter-based entropies) so
they share no code with the vectorized paths they check.
"""

import math
from collections import Counter, deque

from probederand.clustering import NOISE


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
