"""Clustering engine: DBSCAN, cosine k-means, elbow rule, two-stage pipeline.

The references (``oracles.reference_dbscan``, exhaustive assignment
enumeration here) are deliberately plain Python so they share no code
with the vectorized library paths they check.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probederand import clustering
from probederand.clustering import (
    DBSCAN_BLOCK_ROWS,
    NOISE,
    RESTARTS,
    DbscanConfig,
    KmeansConfig,
    _dbscan_neighbours,
    _dbscan_scan,
    _distinct_rows,
    _Pool,
    _refine_labels,
    _seed_rows,
    _unit_rows,
    average_pairwise_similarity,
    dbscan,
    dbscan_labels,
    dynamic_threshold,
    elbow_select_k,
    ie_only_cluster,
    n_clusters,
    spherical_kmeans,
    two_stage_cluster,
    two_stage_labelings,
    write_labeling_file,
)
from probederand.features import group_bursts, pad_matrix
from probederand.randomness import DEFAULT_SEED, STREAM_KMEANS, substream

from oracles import (
    BurstRow,
    Frame,
    all_rows_dbscan,
    burst_table,
    canonical_partition,
    frame_table,
    plain_seed_centers,
    plain_spherical_kmeans,
    reference_dbscan,
    reference_distinct_rows,
    reference_refine_labels,
    table_rows,
    unguarded_fix_empty_clusters,
)

# At k = 4 under default_rng(764), a refill that may take a cluster's only
# member leaves cluster 2 of these rows empty: labels [3, 0, 1, 0, 0].
EMPTIED_ROWS = np.array([[1, 3], [1, 0], [0, 3], [3, 0], [3, 0]], float)


def make_burst(burst_id, ie, vector, mac_tail=None, truth=None):
    mac = bytes([0x02, 0, 0, 0, 0, mac_tail if mac_tail is not None else burst_id % 256])
    return BurstRow(burst_id, mac, tuple(ie), tuple(vector), truth_device=truth)


def ie_rows(bursts):
    return burst_table(bursts).ie_features


def channel_rows(bursts):
    return pad_matrix(burst_table(bursts))


def weighted_count(rows, counts, i, eps):
    """Copies of rows within ``eps`` of ``rows[i]``, itself included."""
    return sum(c for row, c in zip(rows, counts) if math.dist(rows[i], row) <= eps)


@st.composite
def duplicate_heavy_instances(draw):
    """A few distinct integer-lattice rows with large multiplicities,
    shuffled; eps is an integer, so some pairs sit exactly at eps, and
    min_pts equals one row's weighted count or is one above it."""
    dim = draw(st.integers(1, 3))
    cell = st.tuples(*[st.integers(0, 3)] * dim)
    rows = draw(st.lists(cell, min_size=1, max_size=8, unique=True))
    counts = draw(st.lists(st.integers(1, 25), min_size=len(rows), max_size=len(rows)))
    eps = draw(st.sampled_from([1.0, 2.0]))
    i = draw(st.integers(0, len(rows) - 1))
    min_pts = weighted_count(rows, counts, i, eps) + draw(st.integers(0, 1))
    points = [row for row, c in zip(rows, counts) for _ in range(c)]
    return draw(st.permutations(points)), eps, min_pts


@st.composite
def contested_chains(draw):
    """Five rows one eps apart on a line: heavy ends, light inner rows,
    and min_pts one above the middle row's weighted count, so the middle
    row is a border that the clusters on both sides reach. Some lattice
    rows lie beyond eps of the chain; the rows are shuffled."""
    inner = draw(st.lists(st.integers(1, 5), min_size=3, max_size=3))
    ends = draw(st.lists(st.integers(10, 25), min_size=2, max_size=2))
    counts = [ends[0], *inner, ends[1]]
    rows = [(float(x), 0.0) for x in range(5)]
    extra = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(2, 4)), max_size=4, unique=True))
    extra_counts = draw(st.lists(st.integers(1, 12), min_size=len(extra), max_size=len(extra)))
    min_pts = sum(inner) + 1
    points = [row for row, c in zip(rows + extra, counts + extra_counts) for _ in range(c)]
    return draw(st.permutations(points)), 1.0, min_pts


@st.composite
def row_arrays(draw):
    """Arrays for ``_distinct_rows``: 1-D int arrays, or float rows of
    width 0 to 3, none to 30 of them, drawn from a pool of 1 to 30 rows
    (so small pools repeat rows) whose entries mix 0.0, -0.0 and NaN with
    any float. Each is given C-ordered, Fortran-ordered or as every other
    column (entry) of a wider array."""
    if draw(st.booleans()):
        data = np.array(draw(st.lists(st.integers(-3, 3), max_size=30)), dtype=np.int64)
    else:
        width = draw(st.integers(0, 3))
        entry = st.sampled_from((0.0, -0.0, math.nan, 1.0)) | st.floats()
        pool = draw(st.lists(st.lists(entry, min_size=width, max_size=width), min_size=1, max_size=30))
        rows = draw(st.lists(st.sampled_from(pool), max_size=30))
        data = np.array(rows, dtype=float).reshape(len(rows), width)
    layout = draw(st.sampled_from(("C", "F", "strided")))
    if layout == "F":
        return np.asfortranarray(data)
    if layout == "strided":
        return np.repeat(data, 2, axis=data.ndim - 1)[..., ::2]
    return data


class TestDistinctRows:
    @given(row_arrays())
    @settings(max_examples=300, deadline=None)
    @example(np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0]]))
    @example(np.array([[math.nan, 1.0], [0.5, 1.0], [math.nan, 1.0]]))
    @example(np.asfortranarray(np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0]])))
    @example(np.arange(12.0).reshape(3, 4)[:, 1:3])
    @example(np.array([4, 2, 4, 4], dtype=np.int64))
    @example(np.zeros((0, 3)))
    @example(np.zeros((4, 0)))
    def test_matches_bytes_dict(self, values):
        """First indices, multiplicities and each row's distinct index
        are those of numbering the rows' bytes in a dict: 0.0 and -0.0
        differ, copies of a NaN row are one row, and zero-width rows
        are all one row."""
        first, counts, inverse = _distinct_rows(values)
        assert [first.tolist(), counts.tolist(), inverse.tolist()] == list(reference_distinct_rows(values))
        assert inverse.dtype.kind == "i" and inverse.shape == (len(values),)


class TestDbscan:
    def test_identical_points_form_one_cluster(self):
        points = np.zeros((20, 3))
        labels = dbscan(points, DbscanConfig(eps=0.05, min_pts=10))
        assert n_clusters(labels) == 1
        assert set(labels) == {0}

    def test_below_min_pts_is_noise(self):
        points = np.zeros((5, 3))
        labels = dbscan(points, DbscanConfig(eps=0.05, min_pts=10))
        assert n_clusters(labels) == 0
        assert set(labels) == {NOISE}

    def test_two_separated_groups(self):
        rng = np.random.default_rng(7)
        a = 0.2 + rng.uniform(-0.005, 0.005, size=(15, 3))
        b = 0.7 + rng.uniform(-0.005, 0.005, size=(15, 3))
        points = np.vstack([a, b])
        labels = dbscan_labels(points, 0.05, 10)
        assert canonical_partition(labels) == canonical_partition(
            reference_dbscan(points, 0.05, 10)
        )
        assert len(set(labels)) == 2 and NOISE not in labels

    def test_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(5, 120))
            points = rng.uniform(0, 1, size=(n, 3))
            eps = float(rng.uniform(0.05, 0.6))
            min_pts = int(rng.integers(1, 8))
            got = canonical_partition(dbscan_labels(points, eps, min_pts))
            want = canonical_partition(reference_dbscan(points, eps, min_pts))
            assert got == want

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_on_duplicate_heavy_input(self, seed):
        """Over a thousand points on 45 grid rows plus a few singletons,
        shuffled: the exact labels, scan-order border rule included."""
        rng = np.random.default_rng(seed)
        cells = rng.choice(6**3, size=40, replace=False)
        rows = np.stack(np.unravel_index(cells, (6, 6, 6)), axis=1) * 0.05
        counts = rng.permutation([110] * 10 + [6] * 6 + [3] * 8 + [1] * 16)
        # two clusters that both reach the chain's middle (border) row
        chain = np.array([[x, 0.9, 0.9] for x in (0.6, 0.65, 0.7, 0.75, 0.8)])
        points = np.vstack([
            np.repeat(rows, counts, axis=0),
            np.repeat(chain, [8, 4, 1, 4, 8], axis=0),
            rng.uniform(0, 1, size=(5, 3)),
        ])
        points = points[rng.permutation(len(points))]
        eps, min_pts = 0.06, 12  # grid neighbours along one axis only
        want = reference_dbscan(points, eps, min_pts)
        assert dbscan_labels(points, eps, min_pts).tolist() == want

        within = np.linalg.norm(points[:, None] - points[None], axis=2) <= eps
        core = within.sum(axis=1) >= min_pts
        labels = np.array(want)
        border = np.flatnonzero(~core & (labels != NOISE))
        contested = [i for i in border if len(set(labels[within[i] & core])) > 1]
        assert len(points) >= 1100
        assert core.any() and (labels == NOISE).any() and contested

    def test_matches_reference_across_row_blocks(self):
        """Two block edges, and neighbours exactly eps apart (spacing eps,
        where every difference and square is exact): 30 cells of a grid,
        a chain whose every interior point is a core that holds it
        together, and far-off noise. The rows next to each block edge are
        chain points, so a wrong row there splits the chain."""
        rng = np.random.default_rng(1)
        n = 2 * DBSCAN_BLOCK_ROWS + 1
        eps, min_pts = 0.25, 3
        chain = np.array([[x * eps, 5.0, 5.0] for x in range(41)])
        noise = rng.uniform(20, 30, size=(5, 3))
        cells = rng.choice(5**3, size=30, replace=False)
        grid = np.stack(np.unravel_index(cells, (5, 5, 5)), axis=1) * eps
        grid = grid[rng.integers(0, 30, size=n - len(chain) - len(noise))]
        grid[:40] += rng.uniform(0, 0.2, size=(40, 3))
        points = np.vstack([chain, noise, grid])
        order = rng.permutation(n)
        edges = [DBSCAN_BLOCK_ROWS - 1, DBSCAN_BLOCK_ROWS, n - 2, n - 1]
        for row, chain_point in zip(edges, (5, 15, 25, 35)):
            swap = int(np.flatnonzero(order == chain_point)[0])
            order[[row, swap]] = order[[swap, row]]
        points = points[order]

        labels = dbscan_labels(points, eps, min_pts)
        assert labels.tolist() == reference_dbscan(points, eps, min_pts)
        assert len(set(labels[np.isin(order, range(len(chain)))])) == 1
        assert (labels == NOISE).any() and n_clusters(labels) > 2
        # the pairs exactly eps apart decide the labels
        assert dbscan_labels(points, np.nextafter(eps, 0), min_pts).tolist() != labels.tolist()

    def test_distance_phase_memory_is_bounded(self):
        """Peak traced allocation stays below the n x n float64 buffer
        that summing all pairwise distances at once would need, for the
        whole kernel and for the neighbour step alone, whose weighted
        counts would need an n x n integer buffer unblocked."""
        n = 3000
        points = np.random.default_rng(4).uniform(0, 1, size=(n, 3))
        first, weights, _ = _distinct_rows(points)
        distinct = points[first]
        assert len(distinct) == n
        for run in (
            lambda: dbscan_labels(points, 0.05, 10),
            lambda: _dbscan_neighbours(distinct, weights, 0.05),
        ):
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < n * n * 8

    @given(duplicate_heavy_instances())
    @settings(max_examples=200, deadline=None)
    def test_distinct_rows_match_all_rows_on_duplicate_heavy_input(self, instance):
        points, eps, min_pts = instance
        got = dbscan_labels(np.array(points), eps, min_pts).tolist()
        assert got == all_rows_dbscan(np.array(points), eps, min_pts).tolist()
        assert got == reference_dbscan(points, eps, min_pts)

    @given(duplicate_heavy_instances())
    @settings(max_examples=60, deadline=None)
    def test_split_steps_match_references_over_a_grid(self, instance):
        """One preparation and one neighbour step per eps serve every
        min_pts: each grid point's labels are those of the unsplit
        references."""
        points, eps, min_pts = instance
        data = np.array(points)
        first, weights, inverse = _distinct_rows(data)
        distinct = data[first]
        for grid_eps in (eps, 1.5, 2.0):
            within, reach = _dbscan_neighbours(distinct, weights, grid_eps)
            for grid_min_pts in (1, min_pts, 30):
                got = _dbscan_scan(within, reach >= grid_min_pts)[inverse].tolist()
                assert got == all_rows_dbscan(data, grid_eps, grid_min_pts).tolist()
                assert got == reference_dbscan(points, grid_eps, grid_min_pts)

    @given(contested_chains())
    @settings(max_examples=100, deadline=None)
    def test_distinct_rows_match_all_rows_on_contested_borders(self, instance):
        points, eps, min_pts = instance
        got = dbscan_labels(np.array(points), eps, min_pts)
        assert got.tolist() == all_rows_dbscan(np.array(points), eps, min_pts).tolist()
        assert got.tolist() == reference_dbscan(points, eps, min_pts)
        middle = [i for i, p in enumerate(points) if p == (2.0, 0.0)]
        left = [i for i, p in enumerate(points) if p == (1.0, 0.0)]
        right = [i for i, p in enumerate(points) if p == (3.0, 0.0)]
        assert got[left[0]] != got[right[0]]
        assert got[middle[0]] == min(got[left[0]], got[right[0]])

    @pytest.mark.parametrize(
        "points, min_pts",
        [
            (np.zeros((0, 3)), 1),
            (np.array([[0.3, 0.1, 0.7]]), 1),
            (np.array([[0.3, 0.1, 0.7]]), 2),
            # 0.0 and -0.0 differ by bytes, so they are two distinct rows
            # at distance 0: each one's weighted count holds both, so
            # together they reach min_pts
            (np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0], [0.5, 1.0]]), 4),
            # a NaN row is within eps of nothing, its copies included
            (np.array([[math.nan, 1.0], [0.5, 1.0], [math.nan, 1.0], [0.5, 1.0]]), 1),
            # zero-width rows are all one row
            (np.zeros((4, 0)), 4),
        ],
    )
    def test_edge_cases_match_all_rows(self, points, min_pts):
        got = dbscan_labels(points, 0.05, min_pts)
        assert got.dtype == all_rows_dbscan(points, 0.05, min_pts).dtype
        assert got.tolist() == all_rows_dbscan(points, 0.05, min_pts).tolist()
        assert got.tolist() == reference_dbscan(points, 0.05, min_pts)

    def test_duplicate_heavy_memory_is_bounded(self):
        """On 12 000 rows with at most 50 distinct ones, peak traced
        allocation stays below the n x n booleans of a matrix over every
        row."""
        n = 12_000
        rng = np.random.default_rng(5)
        cells = rng.choice(6**3, size=50, replace=False)
        rows = np.stack(np.unravel_index(cells, (6, 6, 6)), axis=1) * 0.05
        points = rows[rng.integers(0, len(rows), size=n)]
        tracemalloc.start()
        try:
            labels = dbscan_labels(points, 0.05, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n
        assert n_clusters(labels) >= 1

    def test_core_points_invariant_under_permutation(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(0, 1, size=(60, 3))
        perm = rng.permutation(60)
        base = dbscan_labels(points, 0.2, 4)
        shuffled = dbscan_labels(points[perm], 0.2, 4)
        base_core_noise = {i for i, l in enumerate(base) if l == NOISE}
        perm_core_noise = {int(perm[i]) for i, l in enumerate(shuffled) if l == NOISE}
        # noise status (never core-reachable) is order-free
        assert base_core_noise == perm_core_noise

    def test_separated_instance_invariant_under_permutation(self):
        rng = np.random.default_rng(11)
        groups = [c + rng.uniform(-0.01, 0.01, size=(12, 3)) for c in (0.1, 0.5, 0.9)]
        points = np.vstack(groups)
        perm = rng.permutation(len(points))
        base, _ = canonical_partition(dbscan_labels(points, 0.05, 5))
        permuted = dbscan_labels(points[perm], 0.05, 5)
        unshuffled = [0] * len(points)
        for new_idx, old_idx in enumerate(perm):
            unshuffled[old_idx] = permuted[new_idx]
        assert canonical_partition(unshuffled)[0] == base

    def test_labeling_keys_are_ids(self, tmp_path):
        """Label i belongs to table row i, the burst with the i-th
        smallest id, whatever order its rows were given in, and the
        labeling file writes each burst's row with its labels."""
        bursts = burst_table(make_burst(i, (10 * (i % 2), 0, 0), (1,)) for i in (9, 7, 12, 8))
        coarse, final = two_stage_labelings(bursts, DbscanConfig(eps=0.1, min_pts=1), KmeansConfig())
        assert coarse.tolist() == [0, 1, 0, 1]  # ids 7, 8, 9, 12
        write_labeling_file(bursts, coarse, final, tmp_path / "labeling.csv")
        rows = (tmp_path / "labeling.csv").read_text().splitlines()[1:]
        assert [(r.split(",")[0], r.split(",")[3]) for r in rows] == [
            ("7", "0"), ("8", "1"), ("9", "0"), ("12", "1")
        ]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            ie_only_cluster([], DbscanConfig())


class TestCosine:
    """Cosine similarity as the fine stage measures it: the mean over the
    single pair of a two-row pool."""

    @staticmethod
    def cosine(a, b):
        return average_pairwise_similarity([a, b])

    def test_self_similarity(self):
        assert self.cosine([1, 6, 11], [1, 6, 11]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert self.cosine([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_magnitude_invariance(self):
        assert self.cosine([1, 1], [2, 2]) == pytest.approx(1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            self.cosine([0, 0], [1, 0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self.cosine([1, 2], [1, 2, 3])


def enumerate_best_distortion(rows, k):
    """Optimal squared-cosine-distance distortion by exhaustive assignment."""
    unit = [np.asarray(r, float) / np.linalg.norm(r) for r in rows]
    best = math.inf
    for assignment in itertools.product(range(k), repeat=len(rows)):
        if len(set(assignment)) != k:
            continue
        total = 0.0
        for j in range(k):
            members = [unit[i] for i in range(len(rows)) if assignment[i] == j]
            center = np.mean(members, axis=0)
            center = center / np.linalg.norm(center)
            total += sum((1.0 - float(m @ center)) ** 2 for m in members)
        best = min(best, total)
    return best


@st.composite
def duplicate_heavy_pools(draw):
    """Up to 6 distinct nonzero small-integer rows (parallel ones share a
    direction) with multiplicities up to 20, shuffled."""
    dim = draw(st.integers(2, 4))
    cell = st.tuples(*[st.integers(0, 3)] * dim).filter(any)
    rows = draw(st.lists(cell, min_size=1, max_size=6, unique=True))
    counts = draw(st.lists(st.integers(1, 20), min_size=len(rows), max_size=len(rows)))
    pool = [row for row, c in zip(rows, counts) for _ in range(c)]
    return np.array(draw(st.permutations(pool)), dtype=float), len(rows)


@st.composite
def distinct_pools(draw):
    """All-distinct random rows in the positive orthant."""
    n = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).uniform(0.05, 1.0, size=(n, dim))


@st.composite
def identical_pools(draw):
    """One nonzero row repeated: every D² weight is zero."""
    row = draw(st.lists(st.integers(0, 13), min_size=1, max_size=5).filter(any))
    return np.tile(np.array(row, dtype=float), (draw(st.integers(1, 10)), 1))


@st.composite
def shared_direction_pools(draw):
    """Raw-distinct rows on a few directions (``[1,0,0]``, ``[2,0,0]``):
    distinct rows whose unit rows are equal."""
    directions = st.sampled_from([(1, 0, 0), (0, 1, 1), (1, 2, 3)])
    bases = draw(st.lists(directions, min_size=1, max_size=3, unique=True))
    rows = [
        tuple(m * x for x in base)
        for base in bases
        for m in draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))
    ]
    counts = draw(st.lists(st.integers(1, 6), min_size=len(rows), max_size=len(rows)))
    pool = [row for row, c in zip(rows, counts) for _ in range(c)]
    return np.array(draw(st.permutations(pool)), dtype=float)


@st.composite
def parallel_row_pools(draw):
    """Up to 8 small-integer multiples of 2-4 directions (``[1,0]``,
    ``[3,0]``): seeded centres repeat a direction, so clusters empty."""
    dim = draw(st.integers(2, 3))
    cell = st.tuples(*[st.integers(0, 2)] * dim).filter(any)
    directions = draw(st.lists(cell, min_size=2, max_size=4, unique=True))
    multiples = st.tuples(st.sampled_from(directions), st.integers(1, 3))
    rows = draw(st.lists(multiples, min_size=1, max_size=8))
    return np.array([[m * x for x in direction] for direction, m in rows], dtype=float)


@st.composite
def refill_cases(draw):
    """(sims, labels, k): similarities of n <= 8 rows to k <= n centres on
    a coarse grid, so rows tie, and any labels in 0..k-1."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, n))
    grid = draw(st.lists(st.integers(-4, 4), min_size=n * k, max_size=n * k))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return np.array(grid, dtype=float).reshape(n, k) / 4, np.array(labels), k


seeding_pools = st.one_of(
    distinct_pools(),
    duplicate_heavy_pools().map(lambda pool: pool[0]),
    identical_pools(),
    shared_direction_pools(),
)


class TestSeeding:
    @settings(max_examples=120, deadline=None)
    @given(seeding_pools, st.integers(0, 2**16))
    def test_memoised_seeding_matches_plain(self, rows, seed):
        """Over one prepared pool, every seeding for k = 1..6 picks the
        plain D² loop's rows and leaves the generator where the plain
        loop leaves it, while the memo fills up across k and repeats."""
        pool = _Pool(rows)
        unit = _unit_rows(rows)
        for k in range(1, 7):
            for restart in range(3):
                rng = substream(seed, STREAM_KMEANS, k, restart)
                plain_rng = substream(seed, STREAM_KMEANS, k, restart)
                assert _seed_rows(pool, k, rng) == plain_seed_centers(unit, k, plain_rng)
                assert rng.random() == plain_rng.random()

    def test_one_state_per_set_of_directions(self):
        """``[1,0,0]`` and ``[2,0,0]`` share a unit row, so picking either
        reaches the same seeding state."""
        rows = np.array([[1, 0, 0], [2, 0, 0], [0, 1, 0], [0, 2, 0]], float)
        pool = _Pool(rows)
        assert pool.ids == [0, 0, 1, 1]
        assert pool.seeding([0]) is pool.seeding([1])
        assert pool.seeding([0, 2]) is pool.seeding([3, 1, 0])
        assert len(pool.seedings) == 2


def assert_matches_plain(rows, k, seed, pool=None):
    """Labels, centres and distortion bitwise equal to the plain restart
    loop's, and ``history`` equal trace for trace."""
    history, plain_history = [], []
    got = spherical_kmeans(rows, k, substream(seed, STREAM_KMEANS), history=history, pool=pool)
    want = plain_spherical_kmeans(rows, k, substream(seed, STREAM_KMEANS), plain_history)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert np.float64(got[2]).tobytes() == np.float64(want[2]).tobytes()
    assert history == plain_history


class TestSphericalKmeans:
    def test_identical_rows_zero_distortion(self):
        rows = np.tile([1.0, 6.0, 11.0], (8, 1))
        _, _, distortion = spherical_kmeans(rows, 1, substream(1, STREAM_KMEANS))
        assert distortion == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pairs_split_perfectly(self):
        rows = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], float)
        labels, _, distortion = spherical_kmeans(rows, 2, substream(2, STREAM_KMEANS))
        assert distortion == pytest.approx(0.0, abs=1e-12)
        assert labels[0] == labels[1] != labels[2] == labels[3]

    def test_three_groups_recovered_and_optimal(self):
        rng = np.random.default_rng(9)
        bases = [
            [1, 6, 11, 0, 0],
            [6, 6, 6, 0, 0],
            [1, 1, 13, 0, 0],
        ]
        rows = np.array(
            [np.asarray(b, float) + rng.uniform(0, 0.05, 5) for b in bases for _ in range(3)]
        )
        labels, _, distortion = spherical_kmeans(rows, 3, substream(5, STREAM_KMEANS))
        assert distortion == pytest.approx(enumerate_best_distortion(rows, 3), abs=1e-9)
        groups = {frozenset(int(i) for i in np.flatnonzero(labels == j)) for j in range(3)}
        assert groups == {frozenset({0, 1, 2}), frozenset({3, 4, 5}), frozenset({6, 7, 8})}

    def test_distortion_never_increases_within_a_run(self):
        rng = np.random.default_rng(17)
        rows = rng.uniform(0.1, 1.0, size=(40, 6))
        history = []
        spherical_kmeans(rows, 4, substream(8, STREAM_KMEANS), history=history)
        assert len(history) == RESTARTS
        for trace in history:
            for earlier, later in zip(trace, trace[1:]):
                assert later <= earlier + 1e-9

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(23)
        rows = rng.uniform(0.1, 1.0, size=(25, 4))
        first = spherical_kmeans(rows, 3, substream(77, STREAM_KMEANS))
        second = spherical_kmeans(rows, 3, substream(77, STREAM_KMEANS))
        assert np.array_equal(first[0], second[0])
        assert first[2] == second[2]

    @settings(max_examples=60, deadline=None)
    @given(duplicate_heavy_pools(), st.integers(0, 2**16))
    def test_memo_matches_plain_restarts_on_duplicate_heavy_pools(self, pool, seed):
        rows, distinct = pool
        for k in range(1, distinct + 1):
            assert_matches_plain(rows, k, seed)

    @settings(max_examples=40, deadline=None)
    @given(distinct_pools(), st.integers(0, 2**16))
    def test_memo_matches_plain_restarts_on_distinct_pools(self, rows, seed):
        for k in range(1, min(len(rows), 5) + 1):
            assert_matches_plain(rows, k, seed)

    @settings(max_examples=40, deadline=None)
    @given(duplicate_heavy_pools(), st.lists(st.integers(0, 2**16), min_size=2, max_size=4))
    def test_shared_pool_matches_plain_across_calls(self, pool, seeds):
        """One prepared pool carries its memos from call to call, under
        different seeds and every k, as ``_refine_labels`` uses it."""
        rows, distinct = pool
        shared = _Pool(rows)
        for seed in seeds:
            for k in range(1, distinct + 1):
                assert_matches_plain(rows, k, seed, pool=shared)

    def test_memo_matches_plain_restarts_when_a_cluster_empties(self, monkeypatch):
        """[1,1] and [2,2] share a direction, so at k = 3 the third seeded
        centre repeats one and ``_fix_empty_clusters`` moves a row."""
        rows = np.array([[1, 1]] * 15 + [[2, 2], [1, 0]], float)
        emptied = []
        fix = clustering._fix_empty_clusters

        def counting_fix(sims, labels, k):
            emptied.append(len(np.unique(labels)) < k)
            fix(sims, labels, k)

        monkeypatch.setattr(clustering, "_fix_empty_clusters", counting_fix)
        assert_matches_plain(rows, 3, seed=3)
        assert any(emptied)

    @settings(max_examples=60, deadline=None)
    @given(parallel_row_pools(), st.integers(0, 2**16))
    @example(EMPTIED_ROWS, 764)
    def test_every_cluster_is_non_empty(self, rows, seed):
        """For every k <= n, the memo path and the plain restart loop
        both return labels covering exactly 0..k-1."""
        for k in range(1, len(rows) + 1):
            labels, _, _ = spherical_kmeans(rows, k, np.random.default_rng(seed))
            plain, _, _ = plain_spherical_kmeans(rows, k, np.random.default_rng(seed), [])
            assert sorted(set(labels.tolist())) == list(range(k))
            assert sorted(set(plain.tolist())) == list(range(k))

    @settings(max_examples=400, deadline=None)
    @given(refill_cases())
    # the unguarded rule moves row 0, cluster 0's only member, into cluster 2
    @example((np.array([[0.0, 1.0, 0.5], [0.0, 1.0, 0.5], [0.0, 0.75, 0.5]]), np.array([0, 1, 1]), 3))
    def test_refill_agrees_with_the_unguarded_rule_where_it_takes_no_sole_member(self, case):
        """The refill leaves all k clusters non-empty, and where the
        unguarded rule takes no cluster's only member both move the same
        rows."""
        sims, labels, k = case
        got, want = labels.copy(), labels.copy()
        clustering._fix_empty_clusters(sims, got, k)
        took_sole = unguarded_fix_empty_clusters(sims, want, k)
        assert sorted(set(got.tolist())) == list(range(k))
        if not took_sole:
            assert got.tolist() == want.tolist()

    def test_repeated_seeds_reuse_one_lloyd_run(self, monkeypatch):
        """Two distinct rows at k = 2 seed at most two centre orders, so
        Lloyd runs fewer than ``RESTARTS`` times while ``history`` keeps
        one trace per restart and the plain loop's iteration count."""
        rows = np.array([[1, 6, 11]] * 9 + [[11, 6, 1]] * 7, float)
        plain_history = []
        plain_spherical_kmeans(rows, 2, substream(6, STREAM_KMEANS), plain_history)
        runs = []
        lloyd = clustering._lloyd

        def counting_lloyd(unit, k, centers):
            runs.append(k)
            return lloyd(unit, k, centers)

        monkeypatch.setattr(clustering, "_lloyd", counting_lloyd)
        history = []
        spherical_kmeans(rows, 2, substream(6, STREAM_KMEANS), history=history)
        assert 1 <= len(runs) < RESTARTS
        assert len(history) == RESTARTS
        assert sum(map(len, history)) == sum(map(len, plain_history))

    def test_k_above_rows_rejected(self):
        with pytest.raises(ValueError):
            spherical_kmeans(np.ones((2, 2)), 3, substream(DEFAULT_SEED, STREAM_KMEANS))

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            spherical_kmeans(
                np.array([[1.0, 0.0], [0.0, 0.0]]), 1, substream(DEFAULT_SEED, STREAM_KMEANS)
            )


class TestDynamicThreshold:
    def test_full_similarity_gives_base(self):
        assert dynamic_threshold(1.0) == pytest.approx(0.4, abs=1e-12)

    def test_zero_similarity_gives_one(self):
        assert dynamic_threshold(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_negative_similarity_clamped(self):
        assert dynamic_threshold(-0.3) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_and_bounded(self):
        values = [dynamic_threshold(s) for s in np.linspace(-1, 1, 41)]
        assert all(earlier >= later for earlier, later in zip(values, values[1:]))
        assert min(values) == pytest.approx(0.4)
        assert max(values) == pytest.approx(1.0)


class TestElbow:
    def test_sharp_drop_selects_two(self):
        assert elbow_select_k([10, 1, 0.9, 0.85, 0.84], 0.85) == 2

    def test_flat_curve_selects_one(self):
        assert elbow_select_k([5, 5, 5, 5, 5], 0.3) == 1

    def test_gradual_drop_crosses_at_three(self):
        assert elbow_select_k([10, 6, 2, 1.5, 1.2], 0.90) == 3

    def test_single_entry(self):
        assert elbow_select_k([3.2], 0.5) == 1

    def test_monotone_in_threshold(self):
        curve = [10, 6, 2, 1.5, 1.2]
        picks = [elbow_select_k(curve, t) for t in np.linspace(0.01, 1.0, 50)]
        assert all(earlier <= later for earlier, later in zip(picks, picks[1:]))

    def test_noisy_curve_uses_running_minimum(self):
        assert elbow_select_k([10, 1, 1.5, 0.9, 0.95], 0.95) == 2


def refine(vectors):
    """Fine-stage labels of bursts that all share one coarse pool."""
    bursts = burst_table(make_burst(i, (1, 1, 1), vector) for i, vector in enumerate(vectors))
    coarse, final = two_stage_labelings(bursts, DbscanConfig(min_pts=1), KmeansConfig(seed=4))
    assert n_clusters(coarse) == 1
    return final.tolist()


class TestRefine:
    def test_single_row(self):
        assert refine([(1, 6)]) == [0]

    def test_identical_rows_stay_together(self):
        assert set(refine([(2, 5, 2)] * 30)) == {0}

    def test_orthogonal_groups_split(self):
        labels = refine([(1, 0)] * 15 + [(0, 1)] * 15)
        assert len(set(labels)) == 2
        assert len(set(labels[:15])) == 1 and len(set(labels[15:])) == 1

    def test_average_similarity_singleton(self):
        assert average_pairwise_similarity(np.array([[1.0, 2.0]])) == 1.0

    def test_distinct_row_cap_matches_uncapped_reference(self):
        """Capping k at the pool's distinct rows gives the labels of trying
        every k up to min(k_max, n), on shuffled duplicate-heavy pools."""
        rng = np.random.default_rng(5)
        pools = [
            # [1,1,1] and [6,6,6]: distinct rows with one direction
            (np.array([[1, 1, 1]] * 12 + [[6, 6, 6]] * 5 + [[1, 6, 11]] * 9, float), 5),
            (np.array([[1, 6, 11], [11, 6, 1], [1, 6, 11]], float), 8),
        ]
        while len(pools) < 200:
            width, count = int(rng.integers(3, 6)), int(rng.integers(1, 7))
            distinct = []
            while len(distinct) < count:
                row = rng.choice([0, 1, 6, 11, 13], size=width).tolist()
                if any(row) and row not in distinct:
                    distinct.append(row)
            rows = np.repeat(np.array(distinct, float), rng.integers(1, 31, len(distinct)), axis=0)
            pools.append((rows, int(rng.integers(1, 9))))

        capped = picked_distinct = k_above_n = 0
        for i, (rows, k_max) in enumerate(pools):
            rows = rows[rng.permutation(len(rows))]
            config = KmeansConfig(k_max=k_max, seed=i)
            want = reference_refine_labels(rows, config, seed_key=(i,))
            entries = {}
            assert _refine_labels(rows, config, (i,), entries).tolist() == want.tolist()
            distinct = len(np.unique(rows, axis=0))
            # the entry's k cap; k_max 1 returns before building one
            assert [cap for cap, _, _ in entries.values()] == ([distinct] if k_max > 1 else [])
            capped += distinct < min(k_max, len(rows))
            picked_distinct += 1 < distinct == len(set(want.tolist()))
            k_above_n += k_max > len(rows)
        # the cap skipped k, a cap one lower would have cut a chosen k, and
        # some pools were smaller than k_max
        assert capped >= 50 and picked_distinct >= 10 and k_above_n >= 2


    def test_shared_cache_matches_uncached_reference(self):
        """One cache over pools that recur under other seeds and seed
        keys gives the reference labels. Two of the pools hold the same
        bytes in different shapes, as draws padded to their own widths
        can, and get a record each."""
        rng = np.random.default_rng(8)
        distinct = np.array([[1, 6, 11, 0], [11, 6, 1, 0], [6, 6, 1, 11], [2, 12, 22, 0]], float)
        pools = []
        for m in (2, 3, 4):
            rows = np.repeat(distinct[:m], rng.integers(2, 12, m), axis=0)
            pools.append(rows[rng.permutation(len(rows))])
        flat = np.array([[1, 6], [11, 6], [1, 6], [6, 6], [1, 11], [6, 1]], float)
        pools += [flat, flat.reshape(3, 4)]
        cache = {}
        for seed in range(4):
            for rows in pools:
                for c in range(2):
                    config = KmeansConfig(seed=seed)
                    want = reference_refine_labels(rows, config, seed_key=(c,))
                    got = _refine_labels(rows, config, seed_key=(c,), pools=cache)
                    assert got.tolist() == want.tolist()
        assert len(cache) == len(pools)


def twin_bursts(n_per=20, jiggle=None):
    """Two devices, one IE template, strongly contrasting sweeps."""
    rng = np.random.default_rng(13)
    bursts = []
    bid = 0
    for tail, vec, truth in (
        (1, (1, 1, 1, 1, 13, 13), "twin-a"),
        (2, (13, 13, 13, 13, 1, 1), "twin-b"),
    ):
        for _ in range(n_per):
            vector = list(vec)
            if jiggle and rng.random() < jiggle:
                vector[int(rng.integers(len(vector)))] = int(rng.integers(1, 14))
            bursts.append(make_burst(bid, (100, 50, 10), vector, mac_tail=tail, truth=truth))
            bid += 1
    return bursts


class TestTwoStage:
    def test_single_population_single_cluster(self):
        bursts = [make_burst(i, (3, 2, 1), (1, 6, 11)) for i in range(15)]
        coarse = ie_only_cluster(ie_rows(bursts), DbscanConfig())
        labels = two_stage_cluster(channel_rows(bursts), coarse, KmeansConfig(seed=6))
        assert n_clusters(labels) == 1

    def test_twins_split_in_stage_two(self):
        bursts = twin_bursts()
        coarse, final = two_stage_labelings(burst_table(bursts), DbscanConfig(), KmeansConfig(seed=6))
        assert n_clusters(coarse) == 1
        assert n_clusters(final) == 2
        by_truth = {}
        for burst, label in zip(bursts, final):
            by_truth.setdefault(burst.truth_device, set()).add(label)
        assert all(len(v) == 1 for v in by_truth.values())
        assert by_truth["twin-a"] != by_truth["twin-b"]

    def test_distinct_templates_split_in_stage_one(self):
        bursts = [make_burst(i, (10, 0, 0), (1, 6, 11), truth="a") for i in range(15)]
        bursts += [make_burst(15 + i, (200, 9, 9), (1, 6, 11), truth="b") for i in range(15)]
        coarse, final = two_stage_labelings(burst_table(bursts), DbscanConfig(), KmeansConfig(seed=6))
        assert n_clusters(coarse) == 2
        assert n_clusters(final) == 2

    def test_refinement_never_merges(self):
        rng = np.random.default_rng(19)
        bursts = []
        for i in range(60):
            ie = tuple(rng.choice([0, 50, 100], size=3))
            vec = tuple(int(c) for c in rng.integers(1, 14, size=int(rng.integers(2, 9))))
            bursts.append(make_burst(i, ie, vec))
        coarse, final = two_stage_labelings(
            burst_table(bursts), DbscanConfig(eps=0.1, min_pts=3), KmeansConfig(seed=21)
        )
        assert n_clusters(final) >= n_clusters(coarse)

    def test_noise_stays_noise(self):
        bursts = [make_burst(i, (i * 40, 0, 0), (1, 6)) for i in range(4)]
        coarse, final = two_stage_labelings(burst_table(bursts), DbscanConfig(eps=0.05, min_pts=3), KmeansConfig(seed=1))
        assert n_clusters(coarse) == 0
        assert set(final) == {NOISE}
        assert n_clusters(final) == 0

    def test_deterministic_for_fixed_seed(self):
        bursts = twin_bursts(jiggle=0.2)
        coarse = ie_only_cluster(ie_rows(bursts), DbscanConfig())
        channels = channel_rows(bursts)
        runs = [two_stage_cluster(channels, coarse, KmeansConfig(seed=33)).tolist() for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    def test_ds_channel_zero_clusters_as_capture_channel(self):
        """A device whose probes all say DS channel 0 clusters as if they
        named the channel they were captured on."""
        sweeps = {"dev-a": (1, 6, 11), "dev-b": (11, 6, 1), "dev-c": (13, 13, 1)}

        def bursts(ds_zero):
            frames, truths, t = [], [], 0.0
            for b in range(4):
                for d, (name, sweep) in enumerate(sweeps.items()):
                    for channel in sweep:
                        ds = 0 if ds_zero and name == "dev-c" else channel
                        ies = bytes([45, 2, 0xAD, 0x01, 3, 1, ds])
                        frames.append(Frame(t, bytes([2, 0, 0, 0, d, b]), channel, 0, ies))
                        truths.append(name)
                        t += 0.01
                    t += 5.0
            return group_bursts(frame_table(frames), 2.0, truths)

        zero, named = bursts(ds_zero=True), bursts(ds_zero=False)
        assert [b.channel_vector for b in table_rows(zero)] == [b.channel_vector for b in table_rows(named)]
        configs = DbscanConfig(min_pts=2), KmeansConfig(seed=7)
        got = two_stage_labelings(zero, *configs)
        want = two_stage_labelings(named, *configs)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert n_clusters(got[1]) >= 2

    def test_ie_only_is_stage_one(self):
        bursts = twin_bursts()
        labels = ie_only_cluster(ie_rows(bursts), DbscanConfig())
        assert n_clusters(labels) == 1
        coarse, _ = two_stage_labelings(burst_table(bursts), DbscanConfig(), KmeansConfig(seed=6))
        assert np.array_equal(coarse, labels)

    def test_fine_stage_refines_the_given_coarse_labels(self):
        """``two_stage_cluster`` splits only what the coarse labels pool:
        rows given as noise stay noise, in any row order."""
        bursts = twin_bursts()
        channels = channel_rows(bursts)
        coarse = ie_only_cluster(ie_rows(bursts), DbscanConfig())
        coarse[: len(coarse) // 2] = NOISE
        final = two_stage_cluster(channels[::-1], coarse[::-1], KmeansConfig(seed=6))
        assert np.array_equal(final == NOISE, coarse[::-1] == NOISE)
        assert n_clusters(final) >= 1
        with pytest.raises(ValueError, match="coarse labels"):
            two_stage_cluster(channels, coarse[1:], KmeansConfig(seed=6))

    @pytest.mark.parametrize("coarse", [[0, 0, 2, 2], [-3, 0, 0, 0]], ids=["gap", "below-noise"])
    def test_coarse_labels_it_cannot_refine_are_rejected(self, monkeypatch, coarse):
        """A skipped cluster number would reach the elbow with no rows,
        and a label below ``NOISE`` would pass for noise: both are one
        ValueError, raised before any pool is refined."""

        def refine(*args, **kwargs):
            raise AssertionError("refined before the coarse labels were checked")

        monkeypatch.setattr(clustering, "_refine_labels", refine)
        channels = channel_rows([make_burst(i, (3, 2, 1), (1, 6, 11)) for i in range(4)])
        with pytest.raises(ValueError, match="coarse labels must be"):
            two_stage_cluster(channels, np.array(coarse), KmeansConfig(seed=6))

    def test_each_pool_takes_the_next_labels(self):
        """On two pools of rows where k-means once left a cluster empty,
        each pool's k-means labels at its chosen k, all k of them, follow
        the labels of the pools before it."""
        channels = np.vstack([EMPTIED_ROWS, EMPTIED_ROWS[::-1]])
        coarse = np.repeat([0, 1], len(EMPTIED_ROWS))
        for seed in range(20):
            config = KmeansConfig(seed=seed)
            final = two_stage_cluster(channels, coarse, config)
            offset = 0
            for c in range(2):
                labels = final[coarse == c] - offset
                k = n_clusters(labels)
                rng = substream(seed, STREAM_KMEANS, c, k)
                assert labels.tolist() == spherical_kmeans(channels[coarse == c], k, rng)[0].tolist()
                assert sorted(set(labels.tolist())) == list(range(k))
                offset += k
            assert n_clusters(final) == offset


class TestConfigs:
    def test_dbscan_config_validation(self):
        with pytest.raises(ValueError):
            DbscanConfig(eps=0.0)
        with pytest.raises(ValueError):
            DbscanConfig(min_pts=0)

    def test_kmeans_config_validation(self):
        with pytest.raises(ValueError):
            KmeansConfig(k_max=0)



def test_n_clusters_ignores_noise():
    assert n_clusters(np.array([], dtype=int)) == 0
    assert n_clusters(np.array([NOISE, NOISE])) == 0
    assert n_clusters(np.array([0, NOISE, 2, 1])) == 3
