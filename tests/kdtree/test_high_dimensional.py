"""High-dimensional search: the KPCE feature-space regime.

KPCE matches FPFH (33-d) and SHOT (352-d) descriptors by nearest
neighbor.  KD-trees degrade toward brute force as dimensionality grows
(every node gets visited), but must stay *correct* — these tests pin
both the correctness and the expected degradation.
"""

import numpy as np
import pytest

from repro.core import TwoStageKDTree
from repro.kdtree import KDTree, SearchStats, bruteforce


@pytest.fixture(scope="module")
def feature_sets():
    rng = np.random.default_rng(21)
    return {
        33: rng.normal(size=(150, 33)),
        352: rng.normal(size=(60, 352)),
    }


class TestCorrectness:
    @pytest.mark.parametrize("dim", [33, 352])
    def test_nn_matches_bruteforce(self, feature_sets, dim):
        features = feature_sets[dim]
        tree = KDTree(features)
        queries = np.random.default_rng(1).normal(size=(10, dim))
        idx, dist = tree.nn_batch(queries)
        bf_idx, bf_dist = bruteforce.nn_batch(features, queries)
        assert np.array_equal(idx, bf_idx)
        assert dist.tobytes() == bf_dist.tobytes()

    @pytest.mark.parametrize("dim", [33, 352])
    def test_knn_matches_bruteforce(self, feature_sets, dim):
        features = feature_sets[dim]
        tree = KDTree(features)
        query = np.random.default_rng(2).normal(size=dim)
        indices, dists = tree.knn_batch(query, 5)
        bf_indices, bf_dists = bruteforce.knn_batch(features, query, 5)
        assert np.array_equal(indices, bf_indices)
        assert dists.tobytes() == bf_dists.tobytes()

    def test_two_stage_in_feature_space(self, feature_sets):
        features = feature_sets[33]
        tree = TwoStageKDTree.from_leaf_size(features, 16)
        query = np.random.default_rng(3).normal(size=33)
        _, dist = tree.nn(query)
        _, bf_dist = bruteforce.nn(features, query)
        assert dist == pytest.approx(bf_dist)

    def test_query_on_feature_returns_itself(self, feature_sets):
        features = feature_sets[33]
        tree = KDTree(features)
        idx, dist = tree.nn_batch(features[7])
        assert idx.tolist() == [7]
        assert dist.tolist() == [0.0]


class TestDegradation:
    def test_pruning_collapses_in_high_dimensions(self):
        """The curse of dimensionality: in 352-d the tree visits nearly
        every node — the reason KPCE may prefer the brute-force backend."""
        rng = np.random.default_rng(4)
        n = 100

        def visits(dim):
            points = rng.normal(size=(n, dim))
            tree = KDTree(points)
            stats = SearchStats()
            tree.nn_batch(rng.normal(size=(10, dim)), stats)
            return stats.nodes_visited / stats.queries

        low = visits(3)
        high = visits(352)
        assert high > 3 * low
        assert high > 0.8 * n  # nearly exhaustive
