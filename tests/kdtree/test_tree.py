"""Unit tests for the canonical KD-tree: construction and batch queries.

The tree answers batches only; a single query is a 1-row batch.  Its
distances sum left to right like :mod:`repro.kdtree.bruteforce`, so every
result is compared with the brute-force reference bit for bit.
"""

import numpy as np
import pytest

from repro.kdtree import KDTree, SearchStats, bruteforce


@pytest.fixture
def points(rng):
    return rng.normal(size=(300, 3))


@pytest.fixture
def tree(points):
    return KDTree(points)


def assert_csr_equal(got, expected):
    assert np.array_equal(got.offsets, expected.offsets)
    assert np.array_equal(got.indices, expected.indices)
    assert got.distances.tobytes() == expected.distances.tobytes()


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            KDTree(np.empty((0, 3)))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            KDTree(np.arange(10.0))

    def test_rejects_nan(self):
        points = np.zeros((4, 3))
        points[2, 1] = np.nan
        with pytest.raises(ValueError):
            KDTree(points)

    def test_single_point(self):
        tree = KDTree(np.array([[1.0, 2.0, 3.0]]))
        assert tree.n == 1
        assert tree.height == 1
        idx, dist = tree.nn_batch([1.0, 2.0, 3.0])
        assert idx.tolist() == [0]
        assert dist.tolist() == [0.0]

    def test_balanced_height(self, points):
        tree = KDTree(points)
        # A median-split tree over n points has height ~log2(n).
        assert tree.height <= int(np.ceil(np.log2(len(points)))) + 2

    def test_copies_input(self, points):
        tree = KDTree(points)
        points[0, 0] = 1e9
        assert tree.points[0, 0] != 1e9

    def test_duplicate_points_handled(self):
        points = np.tile([1.0, 2.0, 3.0], (20, 1))
        tree = KDTree(points)
        idx, dist = tree.nn_batch([1.0, 2.0, 3.0])
        # Every point ties at distance 0; the lowest index wins.
        assert idx.tolist() == [0] and dist.tolist() == [0.0]
        result = tree.radius_batch_csr([1.0, 2.0, 3.0], 0.1)
        assert result.indices.tolist() == list(range(20))

    def test_high_dimensional(self, rng):
        features = rng.normal(size=(100, 33))
        tree = KDTree(features)
        queries = rng.normal(size=(5, 33))
        assert np.array_equal(
            tree.nn_batch(queries)[0], bruteforce.nn_batch(features, queries)[0]
        )

    def test_subtree_indices_cover_all(self, tree):
        indices = tree.subtree_point_indices(0)
        assert np.array_equal(indices, np.arange(tree.n))

    def test_repr(self, tree):
        text = repr(tree)
        assert "n=300" in text
        assert f"height={tree.height}" in text


class TestNN:
    def test_matches_bruteforce(self, tree, points, rng):
        queries = rng.normal(size=(40, 3))
        idx, dist = tree.nn_batch(queries)
        bf_idx, bf_dist = bruteforce.nn_batch(points, queries)
        assert np.array_equal(idx, bf_idx)
        assert dist.tobytes() == bf_dist.tobytes()

    def test_query_on_data_point(self, tree, points):
        idx, dist = tree.nn_batch(points[17])
        assert idx.tolist() == [17]
        assert dist.tolist() == [0.0]

    def test_rejects_dim_mismatch(self, tree):
        with pytest.raises(ValueError):
            tree.nn_batch([1.0, 2.0])

    def test_rejects_nan_query(self, tree):
        with pytest.raises(ValueError):
            tree.nn_batch([np.nan, 0.0, 0.0])

    def test_far_query(self, tree, points):
        query = np.array([1e4, 1e4, 1e4])
        idx, _ = tree.nn_batch(query)
        assert idx[0] == bruteforce.nn(points, query)[0]

    def test_batch_matches_single(self, tree, rng):
        """A batch answers each row as a 1-row batch does, bit for bit."""
        queries = rng.normal(size=(10, 3))
        batch_idx, batch_dist = tree.nn_batch(queries)
        for i, query in enumerate(queries):
            idx, dist = tree.nn_batch(query)
            assert batch_idx[i] == idx[0]
            assert batch_dist[i] == dist[0]


class TestKNN:
    def test_matches_bruteforce(self, tree, points, rng):
        queries = rng.normal(size=(15, 3))
        indices, dists = tree.knn_batch(queries, 8)
        bf_indices, bf_dists = bruteforce.knn_batch(points, queries, 8)
        assert np.array_equal(indices, bf_indices)
        assert dists.tobytes() == bf_dists.tobytes()

    def test_sorted_ascending(self, tree, rng):
        _, dists = tree.knn_batch(rng.normal(size=(4, 3)), 10)
        assert np.all(np.diff(dists, axis=1) >= 0)

    def test_k_larger_than_n(self, tree):
        indices, dists = tree.knn_batch(np.zeros(3), tree.n + 50)
        assert indices.shape == dists.shape == (1, tree.n)
        assert len(set(indices[0].tolist())) == tree.n

    def test_k_one_equals_nn(self, tree, rng):
        queries = rng.normal(size=(10, 3))
        indices, dists = tree.knn_batch(queries, 1)
        nn_idx, nn_dist = tree.nn_batch(queries)
        assert np.array_equal(indices[:, 0], nn_idx)
        assert dists[:, 0].tobytes() == nn_dist.tobytes()

    def test_rejects_nonpositive_k(self, tree):
        with pytest.raises(ValueError):
            tree.knn_batch(np.zeros(3), 0)


class TestRadius:
    def test_matches_bruteforce(self, tree, points, rng):
        queries = rng.normal(size=(15, 3))
        for sort in (False, True):
            assert_csr_equal(
                tree.radius_batch_csr(queries, 0.8, sort=sort),
                bruteforce.radius_batch_csr(points, queries, 0.8, sort=sort),
            )

    def test_zero_radius(self, tree, points):
        result = tree.radius_batch_csr(points[5], 0.0)
        assert result.indices.tolist() == [5]

    def test_huge_radius_returns_all(self, tree):
        result = tree.radius_batch_csr(np.zeros(3), 1e6)
        assert result.indices.tolist() == list(range(tree.n))

    def test_sorted_option(self, tree, rng):
        result = tree.radius_batch_csr(rng.normal(size=3), 1.0, sort=True)
        assert result.n_entries > 1
        assert np.all(np.diff(result.distances) >= 0)

    def test_no_results(self, tree):
        result = tree.radius_batch_csr(np.array([1e5, 1e5, 1e5]), 0.5)
        assert result.counts.tolist() == [0]
        assert len(result.distances) == 0

    def test_rejects_negative_radius(self, tree):
        with pytest.raises(ValueError):
            tree.radius_batch_csr(np.zeros(3), -1.0)

    def test_batch(self, tree, rng):
        """A batch answers each row as a 1-row batch does, bit for bit."""
        queries = rng.normal(size=(5, 3))
        result = tree.radius_batch_csr(queries, 0.7)
        assert result.n_segments == 5
        for i, query in enumerate(queries):
            single = tree.radius_batch_csr(query, 0.7)
            assert_csr_equal(result.select(np.array([i])), single)


class TestStatsAccounting:
    def test_nn_charges_stats(self, tree, rng):
        stats = SearchStats()
        tree.nn_batch(rng.normal(size=3), stats)
        assert stats.queries == 1
        assert stats.results_returned == 1
        assert 0 < stats.nodes_visited <= tree.n
        assert stats.traversal_steps >= stats.nodes_visited

    def test_pruning_happens(self, tree, rng):
        stats = SearchStats()
        tree.nn_batch(rng.normal(size=(10, 3)), stats)
        # NN search on 300 points should visit far fewer than all nodes.
        assert stats.nodes_visited < 10 * tree.n / 2
        assert stats.pruned_subtrees > 0

    def test_radius_results_counted(self, tree, rng):
        stats = SearchStats()
        result = tree.radius_batch_csr(rng.normal(size=(4, 3)), 1.0, stats)
        assert result.n_entries > 0
        assert stats.results_returned == result.n_entries

    def test_knn_visits_bounded(self, tree, rng):
        stats = SearchStats()
        tree.knn_batch(rng.normal(size=3), 5, stats)
        assert stats.nodes_visited <= tree.n
