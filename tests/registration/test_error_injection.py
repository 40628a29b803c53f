"""Unit tests for the Fig. 7 error injectors, against the brute-force oracle."""

import numpy as np
import pytest

from repro.kdtree import SearchStats, bruteforce
from repro.registration import (
    IdentityInjector,
    KthNeighborInjector,
    SearchConfig,
    ShellRadiusInjector,
    build_searcher,
)


@pytest.fixture
def setup(rng):
    points = rng.normal(size=(200, 3))
    return points


@pytest.fixture
def queries(rng):
    return rng.normal(size=(20, 3))


def assert_csr_equal(got, expected):
    assert np.array_equal(got.offsets, expected.offsets)
    assert np.array_equal(got.indices, expected.indices)
    assert np.array_equal(got.distances, expected.distances)


class TestIdentityInjector:
    def test_passthrough(self, setup, queries):
        points = setup
        searcher = build_searcher(points, SearchConfig(), injector=IdentityInjector())
        plain = build_searcher(points, SearchConfig())
        for got, expected in (
            (searcher.nn_batch(queries), plain.nn_batch(queries)),
            (searcher.knn_batch(queries, 4), plain.knn_batch(queries, 4)),
        ):
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])
        assert_csr_equal(
            searcher.radius_batch_csr(queries, 0.8),
            plain.radius_batch_csr(queries, 0.8),
        )


class TestKthNeighbor:
    def test_k1_is_exact(self, setup, queries):
        points = setup
        searcher = build_searcher(
            points, SearchConfig(), injector=KthNeighborInjector(k=1)
        )
        idx, dist = searcher.nn_batch(queries)
        bf_idx, bf_dist = bruteforce.nn_batch(points, queries)
        assert np.array_equal(idx, bf_idx)
        assert np.allclose(dist, bf_dist)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_returns_kth_neighbor(self, setup, queries, k):
        points = setup
        searcher = build_searcher(
            points, SearchConfig(), injector=KthNeighborInjector(k=k)
        )
        idx, dist = searcher.nn_batch(queries)
        bf_indices, bf_dists = bruteforce.knn_batch(points, queries, k)
        assert np.array_equal(idx, bf_indices[:, k - 1])
        assert np.allclose(dist, bf_dists[:, k - 1])

    def test_knn_shifted(self, setup, queries):
        points = setup
        searcher = build_searcher(
            points, SearchConfig(), injector=KthNeighborInjector(k=3)
        )
        indices, dists = searcher.knn_batch(queries, 4)
        bf_indices, bf_dists = bruteforce.knn_batch(points, queries, 6)
        assert np.array_equal(indices, bf_indices[:, 2:])
        assert np.allclose(dists, bf_dists[:, 2:])

    def test_radius_untouched(self, setup, queries):
        points = setup
        searcher = build_searcher(
            points, SearchConfig(), injector=KthNeighborInjector(k=4)
        )
        got = searcher.radius_batch_csr(queries, 0.8)
        expected = bruteforce.radius_batch_csr(points, queries, 0.8)
        assert np.array_equal(got.offsets, expected.offsets)
        assert np.array_equal(got.indices, expected.indices)

    def test_validation(self):
        with pytest.raises(ValueError):
            KthNeighborInjector(k=0)


class TestShellRadius:
    def test_shell_membership(self, setup, queries):
        points = setup
        searcher = build_searcher(
            points, SearchConfig(), injector=ShellRadiusInjector(r1=0.3, r2=0.9)
        )
        got = searcher.radius_batch_csr(queries, 0.6)  # nominal r ignored
        assert np.all(got.distances >= 0.3)
        assert np.all(got.distances <= 0.9 + 1e-12)
        ball = bruteforce.radius_batch_csr(points, queries, 0.9)
        shell = ball.mask(ball.distances >= 0.3)
        assert np.array_equal(got.offsets, shell.offsets)
        assert np.array_equal(got.indices, shell.indices)

    def test_degenerate_exact_shell(self, setup, queries):
        points = setup
        searcher = build_searcher(
            points, SearchConfig(), injector=ShellRadiusInjector(r1=0.0, r2=0.7)
        )
        got = searcher.radius_batch_csr(queries, 0.7)
        expected = bruteforce.radius_batch_csr(points, queries, 0.7)
        assert np.array_equal(got.offsets, expected.offsets)
        assert np.array_equal(got.indices, expected.indices)

    def test_nn_untouched(self, setup, queries):
        points = setup
        searcher = build_searcher(
            points, SearchConfig(), injector=ShellRadiusInjector(r1=0.3, r2=0.9)
        )
        idx, _ = searcher.nn_batch(queries)
        assert np.array_equal(idx, bruteforce.nn_batch(points, queries)[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            ShellRadiusInjector(r1=-0.1, r2=0.5)
        with pytest.raises(ValueError):
            ShellRadiusInjector(r1=0.5, r2=0.5)


class TestStatsStillCharged:
    def test_injected_searches_count_work(self, setup, rng):
        points = setup
        stats = SearchStats()
        searcher = build_searcher(
            points,
            SearchConfig(),
            stats=stats,
            injector=KthNeighborInjector(k=3),
        )
        searcher.nn_batch(rng.normal(size=3))
        assert stats.nodes_visited > 0
        assert stats.queries == 1
