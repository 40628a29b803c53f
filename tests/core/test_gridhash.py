"""The voxel-hash backend's approximation contract, pinned.

:mod:`repro.core.gridhash` promises exactly three things (module
docstring there): radius searches are bit-identical to brute force
whenever ``r <= cell_size`` and no candidate cap triggers; the
``max_candidates`` cap truncates a *radius-independent* candidate set
(so nested-radius filtering stays exact under the cap); and nn/knn are
always exact via expanding Chebyshev rings.  Everything the
registration layer builds on — parity suites, the reuse cache, the DSE
Pareto sweeps — assumes precisely these and nothing stronger.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gridhash import GridHashConfig, GridHashIndex
from repro.kdtree import bruteforce
from repro.kdtree.stats import SearchStats


def make_cloud(seed: int, n: int = 300, scale: float = 4.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    points = rng.uniform(-scale, scale, size=(n, 3))
    return np.vstack([points, points[:: max(1, n // 9)]])  # duplicates


def make_queries(seed: int, points: np.ndarray, n: int = 60) -> np.ndarray:
    rng = np.random.default_rng(seed + 1)
    near = points[rng.integers(0, len(points), size=n // 2)]
    near = near + rng.normal(size=near.shape) * 0.1
    far = rng.uniform(-7, 7, size=(n - len(near), 3))
    return np.vstack([near, far])


class TestExactMatchContract:
    @given(seed=st.integers(0, 2**32 - 1), r=st.sampled_from([0.0, 0.2, 0.7, 1.0]))
    @settings(max_examples=12, deadline=None)
    def test_radius_exact_up_to_cell_size(self, seed, r):
        """r <= cell_size: bit-identical to brute force, same order."""
        points = make_cloud(seed)
        queries = make_queries(seed, points)
        index = GridHashIndex(points, GridHashConfig(cell_size=1.0))
        for sort in (False, True):
            got = index.radius_batch_csr(queries, r, sort=sort)
            expected = bruteforce.radius_batch_csr(points, queries, r, sort=sort)
            assert np.array_equal(got.offsets, expected.offsets)
            assert np.array_equal(got.indices, expected.indices)
            assert np.array_equal(got.distances, expected.distances)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_radius_beyond_cell_is_exact_subset(self, seed):
        """r > cell_size: may miss neighbors outside the probed 3^3
        cells, but never invents one, and keeps order and distances."""
        points = make_cloud(seed)
        queries = make_queries(seed, points)
        index = GridHashIndex(points, GridHashConfig(cell_size=0.5))
        gi, gd = index.radius_batch_csr(queries, 1.4).to_list_pair()
        bi, bd = bruteforce.radius_batch_csr(points, queries, 1.4).to_list_pair()
        missed = 0
        for a, b, c, d in zip(gi, bi, gd, bd):
            keep = np.isin(b, a)
            assert np.array_equal(a, b[keep])
            assert np.array_equal(c, d[keep])
            missed += len(b) - len(a)
        assert missed >= 0  # typically > 0; exactness is not promised here

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 40))
    @settings(max_examples=12, deadline=None)
    def test_nn_knn_always_exact(self, seed, k):
        """Ring expansion with the strict-beat retirement rule: nn/knn
        match brute force bit for bit at any cell size, including ties."""
        points = make_cloud(seed)
        queries = make_queries(seed, points, n=30)
        for cell in (0.3, 1.0, 5.0):
            index = GridHashIndex(points, GridHashConfig(cell_size=cell))
            gi, gd = index.knn_batch(queries, k)
            bi, bd = bruteforce.knn_batch(points, queries, k)
            assert np.array_equal(gi, bi)
            assert np.array_equal(gd, bd)
            ni, nd = index.nn_batch(queries)
            assert np.array_equal(ni, bi[:, 0])
            assert np.array_equal(nd, bd[:, 0])

    def test_boundary_tie_defers_ring_retirement(self):
        """A neighbor at exactly m * cell_size in ring m + 1 with a
        smaller index must still win its distance tie."""
        # Query cell [0,1)^3; point A at distance exactly 1.0 inside
        # ring 1, point B at the same distance but in ring 2 (x = 2.0
        # is cell 2) with a smaller index.
        points = np.array(
            [
                [2.0, 0.0, 0.0],  # index 0: ring 2, distance 1.0
                [0.0, 1.0, 0.0],  # index 1: ring 1, distance 1.0
                [9.0, 9.0, 9.0],  # filler so the grid isn't tiny
            ]
        )
        index = GridHashIndex(points, GridHashConfig(cell_size=1.0))
        indices, dists = index.nn_batch(np.array([1.0, 0.0, 0.0]))
        assert (indices.tolist(), dists.tolist()) == ([0], [1.0])


class TestCandidateCap:
    @given(seed=st.integers(0, 2**32 - 1), cap=st.integers(1, 40))
    @settings(max_examples=12, deadline=None)
    def test_cap_is_radius_independent(self, seed, cap):
        """The capped result at radius r equals the capped result at any
        larger radius filtered down to r — the reuse-cache contract."""
        points = make_cloud(seed)
        queries = make_queries(seed, points, n=40)
        index = GridHashIndex(
            points, GridHashConfig(cell_size=1.0, max_candidates=cap)
        )
        big_i, big_d = index.radius_batch_csr(queries, 1.0).to_list_pair()
        for r in (0.0, 0.3, 0.8):
            small_i, small_d = index.radius_batch_csr(queries, r).to_list_pair()
            for si, sd, bi, bd in zip(small_i, small_d, big_i, big_d):
                keep = bd <= r
                assert np.array_equal(si, bi[keep])
                assert np.array_equal(sd, bd[keep])

    def test_cap_bounds_work_and_results(self):
        points = make_cloud(3, n=500, scale=2.0)  # dense: many candidates
        queries = make_queries(3, points, n=25)
        capped = GridHashIndex(points, GridHashConfig(1.0, max_candidates=5))
        free = GridHashIndex(points, GridHashConfig(1.0))
        s_cap, s_free = SearchStats(), SearchStats()
        ci = capped.radius_batch_csr(queries, 1.0, s_cap).to_lists()
        fi = free.radius_batch_csr(queries, 1.0, s_free).to_lists()
        assert s_cap.nodes_visited <= 5 * len(queries)
        assert s_cap.nodes_visited < s_free.nodes_visited
        for a, b in zip(ci, fi):
            assert len(a) <= 5
            assert set(a.tolist()).issubset(set(b.tolist()))

    def test_cap_does_not_apply_to_knn(self):
        points = make_cloud(4, n=400, scale=2.0)
        capped = GridHashIndex(points, GridHashConfig(1.0, max_candidates=1))
        queries = make_queries(4, points, n=15)
        gi, gd = capped.knn_batch(queries, 8)
        bi, bd = bruteforce.knn_batch(points, queries, 8)
        assert np.array_equal(gi, bi)
        assert np.array_equal(gd, bd)


class TestStatsAndStructure:
    def test_batch_stats_equal_scalar_loop(self):
        """A batch charges what its rows charge as 1-row batches."""
        points = make_cloud(6)
        queries = make_queries(6, points, n=30)
        index = GridHashIndex(points, GridHashConfig(cell_size=0.8))
        s_batch, s_loop = SearchStats(), SearchStats()
        index.radius_batch_csr(queries, 0.8, s_batch)
        for q in queries:
            index.radius_batch_csr(q, 0.8, s_loop)
        assert s_batch == s_loop

    def test_counters_count_probes_and_distances(self):
        points = make_cloud(7)
        index = GridHashIndex(points, GridHashConfig(cell_size=1.0))
        stats = SearchStats()
        result = index.radius_batch_csr(points[:10], 1.0, stats)
        assert stats.queries == 10
        assert stats.traversal_steps == 10 * 27  # 3^3 probes per query
        assert stats.nodes_visited > 0
        assert stats.results_returned == result.n_entries

    def test_occupancy_and_validation(self):
        points = np.array([[0.0, 0.0, 0.0], [0.1, 0.1, 0.1], [5.0, 5.0, 5.0]])
        index = GridHashIndex(points, GridHashConfig(cell_size=1.0))
        assert index.n_occupied_cells == 2
        with pytest.raises(ValueError):
            GridHashIndex(np.empty((0, 3)))
        with pytest.raises(ValueError):
            GridHashConfig(cell_size=0.0)
        with pytest.raises(ValueError):
            GridHashConfig(cell_size=1.0, max_candidates=0)
        with pytest.raises(ValueError):
            index.radius_batch_csr(points[0], -1.0)
        with pytest.raises(ValueError):
            index.knn_batch(points[0], 0)
        with pytest.raises(ValueError):
            GridHashIndex(points, GridHashConfig(cell_size=1e-18))
