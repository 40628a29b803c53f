"""Unit tests for the two-stage KD-tree data structure."""

import numpy as np
import pytest

from repro.core import TraceTable, TwoStageKDTree
from repro.io import make_sequence
from repro.kdtree import SearchStats, bruteforce


@pytest.fixture
def points(rng):
    return rng.normal(size=(256, 3))


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TwoStageKDTree(np.empty((0, 3)), top_height=2)

    def test_rejects_negative_height(self, points):
        with pytest.raises(ValueError):
            TwoStageKDTree(points, top_height=-1)

    def test_rejects_nan(self):
        bad = np.zeros((4, 3))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            TwoStageKDTree(bad, top_height=1)

    def test_height_zero_single_leaf(self, points):
        tree = TwoStageKDTree(points, top_height=0)
        assert tree.n_top_nodes == 0
        assert tree.n_leaf_sets == 1
        assert tree.leaf_set_sizes[0] == len(points)

    def test_top_tree_node_count(self, points):
        tree = TwoStageKDTree(points, top_height=3)
        # Perfectly balanced: 2^3 - 1 internal nodes, up to 2^3 leaf sets.
        assert tree.n_top_nodes == 7
        assert tree.n_leaf_sets <= 8

    def test_leaf_sets_partition_points(self, points):
        tree = TwoStageKDTree(points, top_height=3)
        all_members = np.concatenate(
            [tree.leaf_set_indices(i) for i in range(tree.n_leaf_sets)]
        )
        # Leaf sets plus top-tree nodes cover every point exactly once.
        assert len(all_members) == len(points) - tree.n_top_nodes
        assert len(set(all_members.tolist())) == len(all_members)

    def test_mean_leaf_size_shrinks_with_height(self, points):
        shallow = TwoStageKDTree(points, top_height=2)
        deep = TwoStageKDTree(points, top_height=5)
        assert deep.mean_leaf_size < shallow.mean_leaf_size

    def test_from_leaf_size_targets_size(self, points):
        tree = TwoStageKDTree.from_leaf_size(points, leaf_size=32)
        assert 16 <= tree.mean_leaf_size <= 64

    def test_from_leaf_size_one_is_canonical_like(self, points):
        tree = TwoStageKDTree.from_leaf_size(points, leaf_size=1)
        assert tree.mean_leaf_size <= 2.0

    def test_from_leaf_size_rejects_zero(self, points):
        with pytest.raises(ValueError):
            TwoStageKDTree.from_leaf_size(points, leaf_size=0)

    def test_height_beyond_log_n(self, points):
        # A top-tree taller than log2(n) degenerates gracefully.
        tree = TwoStageKDTree(points, top_height=20)
        idx, dist = tree.nn(points[0])
        assert dist == pytest.approx(0.0, abs=1e-12)

    def test_repr(self, points):
        text = repr(TwoStageKDTree(points, top_height=3))
        assert "top_height=3" in text


class TestScanLeaf:
    def test_scan_returns_squared_distances(self, points):
        tree = TwoStageKDTree(points, top_height=2)
        query = points[0]
        indices, sq = tree.scan_leaf(0, query)
        members = tree.leaf_set_indices(0)
        assert np.array_equal(indices, members)  # stored in ascending order
        expected = np.sum((points[indices] - query) ** 2, axis=1)
        assert np.allclose(sq, expected)


class TestSummationOrder:
    """The leaf kernel's summation order is part of the results.

    Leaf scans sum ``(dx² + dz²) + dy²`` — the order of the
    ``np.einsum("ij,ij->i")`` scan the kernel replaced.  The plain
    ``(dx² + dy²) + dz²`` order keeps search results on most inputs but
    moves last ulps, and FPFH's distance weights carry those ulps into
    the quickstart golden (its KPCE ``nodes_visited``).
    """

    GOLDEN = (
        "leaf-scan squared distances no longer match the einsum summation "
        "order (dx² + dz²) + dy²; this order protects the quickstart golden "
        "in tests/integration/golden_values.json (KPCE nodes_visited)"
    )

    @pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 1e1, 1e3])
    def test_scans_equal_einsum(self, rng, scale):
        # Coordinates of mixed magnitude make the two orders disagree
        # on a large share of rows.
        points = scale * rng.normal(size=(512, 3)) * 10 ** rng.uniform(-1, 1, (512, 3))
        queries = scale * rng.normal(size=(16, 3))
        tree = TwoStageKDTree(points, top_height=0)
        for query in queries:
            indices, sq = tree.scan_leaf(0, query)
            d = points[indices] - query
            assert np.array_equal(sq, np.einsum("ij,ij->i", d, d)), self.GOLDEN
            lanes = (d[:, 0] * d[:, 0] + d[:, 2] * d[:, 2]) + d[:, 1] * d[:, 1]
            assert np.array_equal(sq, lanes), self.GOLDEN
        indices, block = tree._scan_leaf_block(0, queries)
        for row, query in enumerate(queries):
            d = points[indices] - query
            assert np.array_equal(block[row], np.einsum("ij,ij->i", d, d)), (
                self.GOLDEN
            )

    @pytest.mark.parametrize("ndim", [1, 2, 4, 7, 8, 9, 16, 19, 33])
    def test_other_dimensions_equal_einsum(self, rng, ndim):
        points = rng.normal(size=(200, ndim)) * 10 ** rng.uniform(-2, 2, (200, ndim))
        queries = rng.normal(size=(5, ndim))
        tree = TwoStageKDTree(points, top_height=0)
        indices, block = tree._scan_leaf_block(0, queries)
        pairs = tree._scan_pairs(np.zeros(len(queries), dtype=np.int64), queries)
        for row, query in enumerate(queries):
            d = points[indices] - query
            expected = np.einsum("ij,ij->i", d, d)
            assert np.array_equal(tree.scan_leaf(0, query)[1], expected)
            assert np.array_equal(block[row], expected)
            assert np.array_equal(pairs[row], expected)

    @pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 1e1, 1e3])
    def test_pair_kernel_equals_einsum(self, rng, scale):
        # Several leaves of unequal size: each (query, leaf) row holds the
        # leaf's members, then +inf in the padding slots.
        points = scale * rng.normal(size=(300, 3)) * 10 ** rng.uniform(-1, 1, (300, 3))
        tree = TwoStageKDTree(points, top_height=3)
        queries = scale * rng.normal(size=(40, 3))
        leaf_ids = rng.integers(0, tree.n_leaf_sets, size=len(queries))
        pairs = tree._scan_pairs(leaf_ids, queries)
        for row, (leaf, query) in enumerate(zip(leaf_ids, queries)):
            members = tree.leaf_set_indices(leaf)
            got, padding = pairs[row, : len(members)], pairs[row, len(members) :]
            d = points[members] - query
            assert np.array_equal(got, np.einsum("ij,ij->i", d, d)), self.GOLDEN
            lanes = (d[:, 0] * d[:, 0] + d[:, 2] * d[:, 2]) + d[:, 1] * d[:, 1]
            assert np.array_equal(got, lanes), self.GOLDEN
            assert np.all(padding == np.inf)

    @pytest.mark.parametrize("leaf_size", [1, 8, 64])
    def test_knn_of_one_equals_nn(self, leaf_size):
        """Every path sums a top-tree node point's distance left to right.

        On coordinates that are not dyadic another order moves the last
        bit of some distances, so a 1-NN kNN batch must equal the NN
        batch bit for bit."""
        rng = np.random.default_rng(0)
        points = 20.0 * rng.normal(size=(3000, 3))
        queries = 20.0 * rng.normal(size=(2000, 3))
        tree = TwoStageKDTree.from_leaf_size(points, leaf_size)
        nn_indices, nn_dists = tree.nn_batch(queries)
        knn_indices, knn_dists = tree.knn_batch(queries, 1)
        assert np.array_equal(knn_indices[:, 0], nn_indices)
        assert np.array_equal(knn_dists[:, 0], nn_dists)


def assert_backends_agree(points, queries, radii, heights=(0, 1, 2, 3, 5)):
    """Twostage batch, twostage scalar and brute force, bit for bit."""
    bf_idx, bf_dist = bruteforce.nn_batch(points, queries)
    bf_radius = {r: bruteforce.radius_batch_csr(points, queries, r) for r in radii}
    for height in heights:
        tree = TwoStageKDTree(points, top_height=height)
        idx, dist = tree.nn_batch(queries)
        assert np.array_equal(idx, bf_idx), height
        assert np.array_equal(dist, bf_dist), height
        for row, query in enumerate(queries):
            assert tree.nn(query) == (bf_idx[row], bf_dist[row]), (height, row)
        for r, expected in bf_radius.items():
            got = tree.radius_batch_csr(queries, r)
            assert np.array_equal(got.offsets, expected.offsets), (height, r)
            assert np.array_equal(got.indices, expected.indices), (height, r)
            assert np.array_equal(got.distances, expected.distances), (height, r)
            assert np.array_equal(got.sq_distances, expected.sq_distances)
            lists = expected.to_list_pair()
            for row, query in enumerate(queries):
                scalar_idx, scalar_dist = tree.radius(query, r)
                assert np.array_equal(scalar_idx, lists[0][row]), (height, r, row)
                assert np.array_equal(scalar_dist, lists[1][row]), (height, r, row)


class TestNumpyOrderRules:
    """The summation orders of the installed numpy that the
    coordinate-major feature kernels copy (``core/ragged.py``,
    ``descriptors/fpfh.py``, ``keypoints/harris.py``).

    Each kernel sums contiguous coordinate rows in the order numpy's
    row-major call used, so its results stay bit-identical.  If a numpy
    release changes one of these rules, the test names the rule instead
    of the change showing up as a moved digest.
    """

    SIZES = [1, 2, 7, 8, 9, 4096, 36_000]

    @staticmethod
    def mixed(rng, m):
        # Coordinates of mixed magnitude make other orders disagree.
        return rng.normal(size=(m, 3)) * 10 ** rng.uniform(-3, 3, (m, 3))

    @pytest.mark.parametrize("m", SIZES)
    def test_norm_sums_left_to_right(self, rng, m):
        x = self.mixed(rng, m)
        rows = (x[:, 0] * x[:, 0] + x[:, 1] * x[:, 1]) + x[:, 2] * x[:, 2]
        assert np.array_equal(np.linalg.norm(x, axis=1), np.sqrt(rows)), (
            "np.linalg.norm(x, axis=1) no longer sums (x0² + x1²) + x2²; "
            "FPFH's _norm copies that order"
        )

    @pytest.mark.parametrize("m", SIZES)
    def test_einsum_dot_lane_order(self, rng, m):
        a, b = self.mixed(rng, m), self.mixed(rng, m)
        lanes = (a[:, 0] * b[:, 0] + a[:, 2] * b[:, 2]) + a[:, 1] * b[:, 1]
        assert np.array_equal(np.einsum("ij,ij->i", a, b), lanes), (
            "np.einsum('ij,ij->i') no longer sums (a0b0 + a2b2) + a1b1; "
            "FPFH's _dot and Harris's NMS copy that order"
        )

    @pytest.mark.parametrize("m", SIZES)
    def test_reduceat_of_strided_column_equals_contiguous(self, rng, m):
        x = self.mixed(rng, m)
        starts = np.unique(np.concatenate([[0], rng.integers(0, m, size=m // 7)]))
        for column in range(3):
            strided = x[:, column]
            for bounds in (starts, [0]):
                assert np.array_equal(
                    np.add.reduceat(strided, bounds),
                    np.add.reduceat(np.ascontiguousarray(strided), bounds),
                ), (
                    "np.add.reduceat over a strided column no longer equals it "
                    "over a contiguous copy; gathered_moment_covariances relies "
                    "on it"
                )

    def test_the_rules_are_not_trivial(self, rng):
        """At 36k mixed-magnitude rows the other orders differ somewhere,
        so the rules above pin a choice."""
        a, b = self.mixed(rng, 36_000), self.mixed(rng, 36_000)
        other_norm = a[:, 0] * a[:, 0] + (a[:, 1] * a[:, 1] + a[:, 2] * a[:, 2])
        assert not np.array_equal(np.linalg.norm(a, axis=1), np.sqrt(other_norm))
        other_dot = (a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]) + a[:, 2] * b[:, 2]
        assert not np.array_equal(np.einsum("ij,ij->i", a, b), other_dot)


class TestTiesAndDegenerateInputs:
    """Exact ties resolve identically on every path.

    Coordinates are multiples of 0.5 so every squared distance is exact:
    brute force's plain summation order and the leaf kernel's einsum
    order then give the same bits, and any disagreement is a tie-rule
    or ordering bug.
    """

    def test_forty_copies_of_one_point(self, rng):
        duplicate = np.array([1.0, 2.0, 3.0])
        others = rng.integers(-8, 9, size=(80, 3)).astype(np.float64)
        others = others[~np.all(others == duplicate, axis=1)][:60]
        copies = np.sort(rng.choice(100, size=40, replace=False))
        points = np.empty((100, 3))
        points[copies] = duplicate
        points[np.setdiff1d(np.arange(100), copies)] = others
        queries = np.vstack([duplicate, duplicate + [0.5, 0.0, 0.0], others[:10]])
        for height in (0, 2, 4):
            tree = TwoStageKDTree(points, top_height=height)
            idx, dist = tree.nn_batch(duplicate[None, :])
            assert idx[0] == copies[0] and dist[0] == 0.0
            assert tree.nn(duplicate) == (copies[0], 0.0)
            hits = tree.radius_batch_csr(duplicate[None, :], 0.0)
            assert np.array_equal(hits.indices, copies)
            assert np.array_equal(tree.radius(duplicate, 0.0)[0], copies)
        assert_backends_agree(points, queries, radii=(0.0, 0.5, 1.5))

    def test_duplicates_split_across_a_leaf_boundary(self, rng):
        line = np.zeros((40, 3))
        line[:, 0] = np.arange(40)
        points = np.vstack([line, np.tile([20.0, 0.0, 0.0], (6, 1))])
        points = points[rng.permutation(len(points))]
        copies = np.flatnonzero(points[:, 0] == 20.0)
        for height in (1, 2, 3):
            tree = TwoStageKDTree(points, top_height=height)
            holding = [
                leaf
                for leaf in range(tree.n_leaf_sets)
                if np.isin(copies, tree.leaf_set_indices(leaf)).any()
            ]
            assert len(holding) >= 2, "copies must straddle a leaf boundary"
            assert tree.nn([20.0, 0.0, 0.0]) == (copies[0], 0.0)
        queries = np.array([[20.0, 0.0, 0.0], [20.5, 0.0, 0.0], [19.5, 0.5, 0.0]])
        assert_backends_agree(points, queries, radii=(0.0, 0.5, 1.0))

    def test_single_point_cloud(self):
        point = np.array([[0.5, -1.5, 2.0]])
        queries = np.array([[0.5, -1.5, 2.0], [1.0, -1.5, 2.0], [-3.0, 4.0, 0.5]])
        assert_backends_agree(point, queries, radii=(0.0, 0.5, 10.0), heights=(0, 1, 3))

    def test_coplanar_set(self, rng):
        xy = rng.integers(-6, 7, size=(150, 2)).astype(np.float64)
        points = np.column_stack([xy, -xy.sum(axis=1)])  # plane x + y + z = 0
        offsets = rng.integers(-2, 3, size=(20, 2)) * 0.5
        in_plane = points[:20, :2] + offsets
        queries = np.vstack(
            [points[:10], np.column_stack([in_plane, -in_plane.sum(axis=1)])]
        )
        assert_backends_agree(points, queries, radii=(0.0, 1.0, 1.5, 3.0))


class TestQueries:
    @pytest.mark.parametrize("top_height", [0, 1, 3, 6])
    def test_nn_matches_bruteforce(self, points, rng, top_height):
        tree = TwoStageKDTree(points, top_height=top_height)
        for query in rng.normal(size=(20, 3)):
            idx, dist = tree.nn(query)
            _, bf_dist = bruteforce.nn(points, query)
            assert dist == pytest.approx(bf_dist, abs=1e-9)

    @pytest.mark.parametrize("top_height", [0, 2, 5])
    def test_radius_matches_bruteforce(self, points, rng, top_height):
        tree = TwoStageKDTree(points, top_height=top_height)
        for query in rng.normal(size=(10, 3)):
            indices, _ = tree.radius(query, 0.9)
            bf_indices, _ = bruteforce.radius(points, query, 0.9)
            assert set(indices.tolist()) == set(bf_indices.tolist())

    @pytest.mark.parametrize("top_height", [0, 2, 5])
    def test_knn_matches_bruteforce(self, points, rng, top_height):
        tree = TwoStageKDTree(points, top_height=top_height)
        for query in rng.normal(size=(10, 3)):
            _, dists = tree.knn(query, 7)
            _, bf_dists = bruteforce.knn(points, query, 7)
            assert np.allclose(dists, bf_dists, atol=1e-9)

    def test_radius_sorted(self, points, rng):
        tree = TwoStageKDTree(points, top_height=3)
        _, dists = tree.radius(rng.normal(size=3), 1.5, sort=True)
        assert np.all(np.diff(dists) >= 0)

    def test_validation(self, points):
        tree = TwoStageKDTree(points, top_height=3)
        with pytest.raises(ValueError):
            tree.nn([1.0, 2.0])
        with pytest.raises(ValueError):
            tree.radius(np.zeros(3), -0.5)
        with pytest.raises(ValueError):
            tree.knn(np.zeros(3), 0)

    def test_batches(self, points, rng):
        tree = TwoStageKDTree(points, top_height=3)
        queries = rng.normal(size=(8, 3))
        indices, dists = tree.nn_batch(queries)
        assert len(indices) == 8
        assert tree.radius_batch_csr(queries, 0.8).n_segments == 8
        knn_indices, _ = tree.knn_batch(queries, 4)
        assert len(knn_indices) == 8


class TestRedundancy:
    """The defining property of Fig. 6: parallelism costs node visits."""

    def test_shorter_top_tree_visits_more_nodes(self, points, rng):
        queries = rng.normal(size=(30, 3))
        visits = {}
        for height in (1, 3, 6):
            tree = TwoStageKDTree(points, top_height=height)
            stats = SearchStats()
            tree.nn_batch(queries, stats)
            visits[height] = stats.nodes_visited
        assert visits[1] > visits[3] > visits[6]

    def test_height_zero_visits_everything(self, points, rng):
        tree = TwoStageKDTree(points, top_height=0)
        stats = SearchStats()
        tree.nn(rng.normal(size=3), stats)
        assert stats.nodes_visited == len(points)

    def test_nn_redundancy_grows_faster_than_radius(self, points, rng):
        """Paper Fig. 6a: NN search suffers more from exhaustive leaves
        than radius search because it prunes better in the classic tree."""
        queries = rng.normal(size=(30, 3))
        r = 0.9

        def visits(height, kind):
            tree = TwoStageKDTree(points, top_height=height)
            stats = SearchStats()
            if kind == "nn":
                tree.nn_batch(queries, stats)
            else:
                tree.radius_batch_csr(queries, r, stats)
            return stats.nodes_visited

        deep_nn, shallow_nn = visits(6, "nn"), visits(1, "nn")
        deep_r, shallow_r = visits(6, "radius"), visits(1, "radius")
        nn_redundancy = shallow_nn / deep_nn
        radius_redundancy = shallow_r / deep_r
        assert nn_redundancy > radius_redundancy


class TestTraces:
    def test_trace_counts_match_stats(self, points, rng):
        tree = TwoStageKDTree(points, top_height=3)
        stats = SearchStats()
        traces = []
        for query in rng.normal(size=(10, 3)):
            tree.nn(query, stats, traces)
        assert len(traces) == 10
        assert sum(t.nodes_visited for t in traces) == stats.nodes_visited

    def test_trace_leaf_visits_have_valid_ids(self, points, rng):
        tree = TwoStageKDTree(points, top_height=3)
        traces = []
        tree.nn(rng.normal(size=3), trace=traces)
        for visit in traces[0].leaf_visits:
            assert 0 <= visit.leaf_id < tree.n_leaf_sets

    def test_pruned_leaf_visits_do_no_work(self, points, rng):
        tree = TwoStageKDTree(points, top_height=4)
        traces = []
        tree.nn_batch(rng.normal(size=(20, 3)), trace=traces)
        (table,) = traces
        assert table.n_queries == 20 and table.pruned.any()
        assert np.all(table.scanned[table.pruned] == 0)


class TestPaddedLeaves:
    """Leaf sets are padded to the largest one with +inf slots; no scan
    may report a padding slot or drop a member next to one."""

    @pytest.fixture
    def uneven(self, rng):
        points = rng.normal(size=(100, 3))
        tree = TwoStageKDTree(points, top_height=3)
        assert len(set(tree.leaf_set_sizes.tolist())) > 1
        return points, tree

    def test_infinite_radius_returns_every_point(self, uneven, rng):
        points, tree = uneven
        queries = rng.normal(size=(6, 3))
        assert np.all(tree.radius_batch_csr(queries, np.inf).counts == len(points))
        traced = tree.radius_batch_csr(queries, np.inf, trace=[])
        assert np.all(traced.counts == len(points))
        for query in queries:
            assert len(tree.radius(query, np.inf)[0]) == len(points)

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_last_member_of_the_shortest_leaf(self, uneven, traced):
        points, tree = uneven
        shortest = int(np.argmin(tree.leaf_set_sizes))
        member = tree.leaf_set_indices(shortest)[-1]
        idx, dist = tree.nn_batch(points[[member]], trace=[] if traced else None)
        assert idx[0] == member and dist[0] == 0.0


def _queries_with(value):
    queries = np.zeros((4, 3))
    queries[2, 1] = value
    return queries


def _nan_in_row_4_of_6():
    queries = np.zeros((6, 3))
    queries[4, 0] = np.nan
    return queries


# (queries, r) pairs every batch entry point must reject, traced or not.
INVALID_BATCHES = {
    "nan-query": (_queries_with(np.nan), 1.0),
    "inf-query": (_queries_with(np.inf), 1.0),
    "nan-in-row-4-of-6": (_nan_in_row_4_of_6(), 1.0),
    "wrong-dimension-empty": (np.empty((0, 2)), 1.0),
    "wrong-dimension-empty-5": (np.empty((0, 5)), 1.0),
    "wrong-dimension": (np.zeros((3, 2)), 1.0),
    "negative-radius-empty": (np.empty((0, 3)), -1.0),
    "negative-radius": (np.zeros((3, 3)), -1.0),
    "nan-radius": (np.zeros((3, 3)), np.nan),
}
QUERY_CASES = [case for case in INVALID_BATCHES if "radius" not in case]


class TestBatchValidation:
    """Traced and untraced batches validate at the batch boundary, before
    any query runs, so an empty batch is checked too and a bad row charges
    no counter and appends no trace."""

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("case", list(INVALID_BATCHES))
    def test_radius_batch_rejects(self, points, case, traced):
        queries, r = INVALID_BATCHES[case]
        tree = TwoStageKDTree(points, top_height=3)
        stats, trace = SearchStats(), [] if traced else None
        with pytest.raises(ValueError):
            tree.radius_batch_csr(queries, r, stats, trace=trace)
        assert not trace
        assert stats == SearchStats()

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("case", QUERY_CASES)
    def test_nn_batch_rejects(self, points, case, traced):
        queries, _ = INVALID_BATCHES[case]
        tree = TwoStageKDTree(points, top_height=3)
        stats, trace = SearchStats(), [] if traced else None
        with pytest.raises(ValueError):
            tree.nn_batch(queries, stats, trace=trace)
        assert not trace
        assert stats == SearchStats()

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("case", QUERY_CASES)
    def test_knn_batch_rejects(self, points, case, traced):
        queries, _ = INVALID_BATCHES[case]
        tree = TwoStageKDTree(points, top_height=3)
        stats, trace = SearchStats(), [] if traced else None
        with pytest.raises(ValueError):
            tree.knn_batch(queries, 3, stats, trace=trace)
        assert not trace
        assert stats == SearchStats()


def _seeded_cloud(seed=2019):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(256, 3)), rng.normal(size=(60, 3))


def _top_height_zero():
    points, queries = _seeded_cloud()
    return TwoStageKDTree(points, top_height=0), queries


def _leaf_size_one():
    # Height 8 over 256 points: most home paths dead-end above a leaf.
    points, queries = _seeded_cloud()
    return TwoStageKDTree.from_leaf_size(points, 1), np.vstack([queries, points[:20]])


def _forty_copies():
    rng = np.random.default_rng(40)
    duplicate = np.array([1.0, 2.0, 3.0])
    others = rng.integers(-8, 9, size=(80, 3)).astype(np.float64)
    others = others[~np.all(others == duplicate, axis=1)][:60]
    points = np.vstack([np.tile(duplicate, (40, 1)), others])
    points = points[rng.permutation(len(points))]
    queries = np.vstack([duplicate, duplicate + [0.5, 0.0, 0.0], others[:10]])
    return TwoStageKDTree(points, top_height=4), queries


def _coplanar_grid():
    grid = np.stack(np.meshgrid(np.arange(12.0), np.arange(10.0)), -1)
    xy = grid.reshape(-1, 2)
    points = np.column_stack([xy, np.zeros(len(xy))])
    queries = np.column_stack([xy[::7] + 0.5, np.zeros(len(xy[::7]))])
    return TwoStageKDTree(points, top_height=3), queries


def _far_outside():
    points, queries = _seeded_cloud()
    queries = np.vstack([queries[:10] + 1e3, [[-1e4, 0.0, 5e3]]])
    return TwoStageKDTree(points, top_height=6), queries


def _lidar_frame():
    # ICP's regime: one ~2.8k-point frame searched from the next.
    source, target, _ = make_sequence(n_frames=2, seed=3).pair(0)
    return TwoStageKDTree.from_leaf_size(target.points, 64), source.points


NN_COUNTER_INPUTS = {
    "top-height-0": _top_height_zero,
    "leaf-size-1": _leaf_size_one,
    "forty-copies": _forty_copies,
    "coplanar-grid": _coplanar_grid,
    "far-outside": _far_outside,
    "lidar-frame-leaf-64": _lidar_frame,
}


class TestNNBatchCounters:
    """The untraced NN batch's work counters, pinned exactly.

    The NN batch prunes against bests that depend on which leaves and
    nodes it has already folded in, so its counters record its schedule:
    the home-leaf pass, the top-tree rounds, and the fresh-bound check
    before each off-path leaf scan.  A schedule change that keeps every
    result moves these numbers (and, through RPCE, the quickstart golden).
    """

    EXPECTED = {
        "top-height-0": (15360, 0, 0),
        "leaf-size-1": (2845, 4734, 1891),
        "forty-copies": (283, 112, 55),
        "coplanar-grid": (531, 96, 49),
        "far-outside": (1756, 597, 136),
        "lidar-frame-leaf-64": (328634, 26132, 14143),
    }

    @pytest.mark.parametrize("case", list(NN_COUNTER_INPUTS))
    def test_counters(self, case):
        tree, queries = NN_COUNTER_INPUTS[case]()
        stats = SearchStats()
        idx, _ = tree.nn_batch(queries, stats)
        nodes_visited, traversal_steps, pruned_subtrees = self.EXPECTED[case]
        assert stats == SearchStats(
            nodes_visited=nodes_visited,
            traversal_steps=traversal_steps,
            pruned_subtrees=pruned_subtrees,
            queries=len(queries),
            results_returned=len(queries),
        )
        assert np.all(idx >= 0)


def assert_bits_equal(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def assert_traced_batch_exact(tree, queries, radii):
    """Traced batches against a loop over the scalar search: one
    ``TraceTable`` equal to the scalar ``QueryTrace`` records' (every
    column, leaf visits in order), results bit for bit and every
    ``SearchStats`` counter."""
    stats, trace = SearchStats(), []
    idx, dist = tree.nn_batch(queries, stats, trace=trace)
    oracle_stats, oracle_trace = SearchStats(), []
    oracle = [tree.nn(query, oracle_stats, oracle_trace) for query in queries]
    assert trace == [TraceTable.from_records(oracle_trace)]
    assert stats == oracle_stats
    assert_bits_equal(idx, np.array([i for i, _ in oracle], dtype=np.int64))
    assert_bits_equal(dist, np.array([d for _, d in oracle], dtype=np.float64))
    for r in radii:
        for sort in (False, True):
            stats, trace = SearchStats(), []
            got = tree.radius_batch_csr(queries, r, stats, sort=sort, trace=trace)
            oracle_stats, oracle_trace = SearchStats(), []
            oracle = [
                tree.radius(query, r, oracle_stats, sort=sort, trace=oracle_trace)
                for query in queries
            ]
            assert trace == [TraceTable.from_records(oracle_trace)], (r, sort)
            assert stats == oracle_stats, (r, sort)
            assert got.n_segments == len(oracle)
            for row, (expected_idx, expected_dist) in enumerate(oracle):
                segment = slice(got.offsets[row], got.offsets[row + 1])
                assert_bits_equal(got.indices[segment], expected_idx)
                assert_bits_equal(got.distances[segment], expected_dist)


class TestTracedBatch:
    """``nn_batch(trace=)`` and ``radius_batch_csr(trace=)`` advance every
    query's own depth-first search in lockstep; each query must visit,
    prune and scan exactly what the scalar search does, in its order."""

    @pytest.mark.parametrize("top_height", [0, 1, 3])
    def test_heights(self, points, rng, top_height):
        tree = TwoStageKDTree(points, top_height=top_height)
        queries = rng.normal(size=(40, 3))
        assert_traced_batch_exact(tree, queries, radii=(0.0, 0.3, 0.9))

    def test_deep_tree(self, points, rng):
        tree = TwoStageKDTree.from_leaf_size(points, 1)
        assert tree.top_height == 8
        queries = np.vstack([rng.normal(size=(30, 3)), points[:10]])
        assert_traced_batch_exact(tree, queries, radii=(0.0, 0.4))

    def test_forty_copies_of_one_point(self, rng):
        duplicate = np.array([1.0, 2.0, 3.0])
        others = rng.integers(-8, 9, size=(80, 3)).astype(np.float64)
        others = others[~np.all(others == duplicate, axis=1)][:60]
        points = np.vstack([np.tile(duplicate, (40, 1)), others])
        points = points[rng.permutation(len(points))]
        queries = np.vstack([duplicate, duplicate + [0.5, 0.0, 0.0], others[:10]])
        for height in (0, 2, 4, 7):
            tree = TwoStageKDTree(points, top_height=height)
            assert_traced_batch_exact(tree, queries, radii=(0.0, 0.5, 1.5))

    def test_single_point_tree(self):
        point = np.array([[0.5, -1.5, 2.0]])
        queries = np.array([[0.5, -1.5, 2.0], [1.0, -1.5, 2.0], [-3.0, 4.0, 0.5]])
        for height in (0, 1, 3):
            tree = TwoStageKDTree(point, top_height=height)
            assert_traced_batch_exact(tree, queries, radii=(0.0, 0.5, 10.0))

    def test_coplanar_grid(self):
        grid = np.stack(np.meshgrid(np.arange(12.0), np.arange(10.0)), -1)
        xy = grid.reshape(-1, 2)
        points = np.column_stack([xy, np.zeros(len(xy))])
        queries = np.column_stack([xy[::7] + 0.5, np.zeros(len(xy[::7]))])
        for height in (1, 3, 5):
            tree = TwoStageKDTree(points, top_height=height)
            assert_traced_batch_exact(tree, queries, radii=(0.0, 1.0, 1.5))

    def test_queries_far_outside_the_cloud(self, points, rng):
        queries = np.vstack([rng.normal(size=(10, 3)) + 1e3, [[-1e4, 0.0, 5e3]]])
        for height in (0, 3, 6):
            tree = TwoStageKDTree(points, top_height=height)
            assert_traced_batch_exact(tree, queries, radii=(0.0, 2.0, 3e4))

    def test_empty_batch(self, points):
        tree = TwoStageKDTree(points, top_height=3)
        assert_traced_batch_exact(tree, np.empty((0, 3)), radii=(0.0, 1.0))

    def test_empty_results(self, points, rng):
        """Rows whose radius search finds nothing keep their traversal
        and their leaf visits, with zero results and result sizes."""
        queries = rng.normal(size=(12, 3)) + 0.5
        for height in (0, 3):
            tree = TwoStageKDTree(points, top_height=height)
            trace = []
            tree.radius_batch_csr(queries, 1e-9, trace=trace)
            (table,) = trace
            assert not table.results.any() and not table.result_size.any()
            assert len(table.leaf_id) >= len(queries)
            assert_traced_batch_exact(tree, queries, radii=(1e-9,))
