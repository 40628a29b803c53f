"""Unit tests for the approximate leaders/followers search (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import (
    ApproximateSearch,
    ApproximateSearchConfig,
    TwoStageKDTree,
)
from repro.kdtree import SearchStats, bruteforce


@pytest.fixture
def points(rng):
    return rng.normal(size=(400, 3))


@pytest.fixture
def tree(points):
    return TwoStageKDTree(points, top_height=3)


class TestConfig:
    def test_defaults_match_paper(self):
        config = ApproximateSearchConfig()
        assert config.nn_threshold == pytest.approx(1.2)
        assert config.radius_threshold_fraction == pytest.approx(0.4)
        assert config.leader_capacity == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            ApproximateSearchConfig(nn_threshold=-1.0)
        with pytest.raises(ValueError):
            ApproximateSearchConfig(radius_threshold_fraction=1.5)
        with pytest.raises(ValueError):
            ApproximateSearchConfig(leader_capacity=-1)
        with pytest.raises(ValueError):
            ApproximateSearchConfig(leader_result_k=0)


class TestLeaderMechanics:
    def test_first_query_becomes_leader(self, tree, rng):
        search = ApproximateSearch(tree)
        traces = []
        search.nn(rng.normal(size=3), trace=traces)
        visits = [v for v in traces[0].leaf_visits if not v.pruned]
        assert any(v.became_leader for v in visits)
        assert search.total_leaders >= 1

    def test_nearby_query_follows(self, tree, rng):
        search = ApproximateSearch(tree, ApproximateSearchConfig(nn_threshold=5.0))
        query = rng.normal(size=3)
        search.nn(query)
        traces = []
        search.nn(query + 1e-4, trace=traces)
        visits = [v for v in traces[0].leaf_visits if not v.pruned]
        assert any(v.approximate for v in visits)

    def test_follower_scans_less(self, tree, rng):
        search = ApproximateSearch(tree, ApproximateSearchConfig(nn_threshold=5.0))
        query = rng.normal(size=3)
        leader_stats = SearchStats()
        search.nn(query, leader_stats)
        follower_stats = SearchStats()
        search.nn(query + 1e-4, follower_stats)
        assert follower_stats.nodes_visited < leader_stats.nodes_visited
        assert follower_stats.leader_checks > 0

    def test_far_query_becomes_new_leader(self, tree):
        search = ApproximateSearch(
            tree, ApproximateSearchConfig(nn_threshold=1e-9)
        )
        search.nn(np.array([0.1, 0.1, 0.1]))
        before = search.total_leaders
        search.nn(np.array([0.1, 0.1, 0.15]))
        assert search.total_leaders > before

    def test_leader_capacity_respected(self, points):
        tree = TwoStageKDTree(points, top_height=0)  # single leaf set
        search = ApproximateSearch(
            tree,
            ApproximateSearchConfig(nn_threshold=1e-12, leader_capacity=4),
        )
        rng = np.random.default_rng(0)
        for query in rng.normal(size=(20, 3)):
            search.nn(query)
        assert search.leader_count(0) == 4

    def test_capacity_overflow_falls_back_to_exact(self, points, rng):
        tree = TwoStageKDTree(points, top_height=0)
        search = ApproximateSearch(
            tree, ApproximateSearchConfig(nn_threshold=1e-12, leader_capacity=1)
        )
        search.nn(rng.normal(size=3))
        # Second far query: buffer full, must scan exhaustively (exact).
        query = rng.normal(size=3) + 10.0
        idx, dist = search.nn(query)
        _, bf_dist = bruteforce.nn(points, query)
        assert dist == pytest.approx(bf_dist, abs=1e-9)

    def test_reset_clears_leaders(self, tree, rng):
        search = ApproximateSearch(tree)
        search.nn_batch(rng.normal(size=(10, 3)))
        assert search.total_leaders > 0
        search.reset()
        assert search.total_leaders == 0


class TestAccuracy:
    """Approximation quality: results are near-exact on dense data."""

    def test_nn_results_mostly_exact(self, points, tree):
        # Tight threshold + top-8 leader results: high-fidelity setting.
        # (The paper's thd = 1.2 m targets LiDAR point spacing; this
        # random cloud is denser, so the threshold scales down too.)
        search = ApproximateSearch(
            tree,
            ApproximateSearchConfig(nn_threshold=0.1, leader_result_k=8),
        )
        queries = points + np.random.default_rng(1).normal(
            scale=0.02, size=points.shape
        )
        exact = 0
        for query in queries[:150]:
            idx, _ = search.nn(query)
            bf_idx, _ = bruteforce.nn(points, query)
            exact += idx == bf_idx
        assert exact / 150 > 0.7

    def test_nn_distance_error_bounded(self, points, tree, rng):
        search = ApproximateSearch(tree)
        worst = 0.0
        for query in rng.normal(size=(100, 3)):
            _, dist = search.nn(query)
            _, bf_dist = bruteforce.nn(points, query)
            worst = max(worst, dist - bf_dist)
        # Approximate NN can be off, but not beyond the threshold scale.
        assert worst <= search.config.nn_threshold + 1e-9

    def test_radius_returns_subset_of_exact(self, points, tree, rng):
        search = ApproximateSearch(tree)
        for query in rng.normal(size=(30, 3)):
            indices, dists = search.radius(query, 0.8)
            bf_indices, _ = bruteforce.radius(points, query, 0.8)
            assert set(indices.tolist()) <= set(bf_indices.tolist())
            assert np.all(dists <= 0.8 + 1e-12)

    def test_radius_recall_reasonable(self, points, tree, rng):
        search = ApproximateSearch(tree)
        found = total = 0
        for query in points[:100]:
            indices, _ = search.radius(query, 0.8)
            bf_indices, _ = bruteforce.radius(points, query, 0.8)
            found += len(set(indices.tolist()) & set(bf_indices.tolist()))
            total += len(bf_indices)
        assert found / total > 0.6

    def test_zero_threshold_is_exact(self, points, rng):
        tree = TwoStageKDTree(points, top_height=3)
        search = ApproximateSearch(
            tree,
            ApproximateSearchConfig(
                nn_threshold=0.0, radius_threshold_fraction=0.0
            ),
        )
        for query in rng.normal(size=(25, 3)):
            _, dist = search.nn(query)
            _, bf_dist = bruteforce.nn(points, query)
            assert dist == pytest.approx(bf_dist, abs=1e-9)
            indices, _ = search.radius(query, 0.7)
            bf_indices, _ = bruteforce.radius(points, query, 0.7)
            assert set(indices.tolist()) == set(bf_indices.tolist())


class TestWorkReduction:
    """The whole point: followers cut node visits (paper Sec. 6.3)."""

    def test_batch_visits_fewer_nodes_than_exact(self, points, rng):
        tree = TwoStageKDTree(points, top_height=2)
        queries = np.repeat(points[:50], 4, axis=0) + rng.normal(
            scale=0.05, size=(200, 3)
        )
        exact_stats = SearchStats()
        tree.nn_batch(queries, exact_stats)
        approx_stats = SearchStats()
        ApproximateSearch(tree).nn_batch(queries, approx_stats)
        assert approx_stats.total_work < exact_stats.nodes_visited

    def test_radius_work_reduction(self, points, rng):
        # Clustered queries (as in a dense LiDAR sweep): followers fire.
        tree = TwoStageKDTree(points, top_height=2)
        queries = np.repeat(points[:40], 5, axis=0) + rng.normal(
            scale=0.03, size=(200, 3)
        )
        exact_stats = SearchStats()
        tree.radius_batch_csr(queries, 0.8, exact_stats)
        approx_stats = SearchStats()
        ApproximateSearch(tree).radius_batch_csr(queries, 0.8, approx_stats)
        assert approx_stats.total_work < exact_stats.nodes_visited


class TestKNNExtension:
    def test_knn_shapes_and_order(self, tree, rng):
        search = ApproximateSearch(tree)
        indices, dists = search.knn(rng.normal(size=3), 5)
        assert len(indices) == 5
        assert np.all(np.diff(dists) >= 0)

    def test_knn_close_to_exact(self, points, tree):
        search = ApproximateSearch(tree)
        query = points[7] + 0.01
        _, dists = search.knn(query, 3)
        _, bf_dists = bruteforce.knn(points, query, 3)
        assert dists[0] <= bf_dists[0] + search.config.nn_threshold
