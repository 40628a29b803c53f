"""Degenerate-input behavior of every search backend.

The backends share one batch interface and must agree on the
edges: empty result sets, k exceeding the point count, exact duplicates
(distance ties), single-point clouds, and invalid arguments.  A single
query is a 1-row batch.  Exact backends must agree with brute force in
every such case; the approximate backend must at least keep shapes,
dtypes, and ordering invariants.  Every backend checks the same batch
contract before any work (:func:`repro.kdtree._validate.check_batch`).
The two-stage tree also runs at both ends of the leaf-size sweep
(:mod:`tests.registration.search_cases`).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.kdtree import SearchStats
from repro.registration.search import (
    BACKENDS,
    NeighborSearcher,
    RadiusReuseCache,
    SearchConfig,
    build_index,
    build_searcher,
    exact_index,
)

from ..core.test_twostage import INVALID_BATCHES, QUERY_CASES
from .search_cases import search_cases

EXACT_BACKENDS = tuple(backend for backend in BACKENDS if backend != "approximate")
CASES = search_cases(8)
EXACT_CASES = search_cases(8, EXACT_BACKENDS)


def searcher_for(points, backend, leaf_size):
    return build_searcher(points, SearchConfig(backend=backend, leaf_size=leaf_size))


def index_for(points, backend, leaf_size):
    index, _ = build_index(points, SearchConfig(backend=backend, leaf_size=leaf_size))
    return index


@pytest.fixture()
def cloud():
    rng = np.random.default_rng(21)
    return rng.uniform(-3, 3, size=(120, 3))


@pytest.mark.parametrize("backend,leaf_size", CASES)
class TestEmptyResults:
    def test_zero_radius_off_point(self, backend, leaf_size, cloud):
        searcher = searcher_for(cloud, backend, leaf_size)
        result = searcher.radius_batch_csr(np.array([50.0, 50.0, 50.0]), 0.0)
        assert result.counts.tolist() == [0]
        assert result.indices.dtype == np.int64
        assert result.distances.dtype == np.float64

    def test_tiny_radius_batch_all_empty(self, backend, leaf_size, cloud):
        searcher = searcher_for(cloud, backend, leaf_size)
        queries = cloud[:7] + 0.5  # nudged off every point
        idx_lists, dist_lists = searcher.radius_batch(queries, 1e-9)
        assert len(idx_lists) == len(dist_lists) == 7
        for indices, dists in zip(idx_lists, dist_lists):
            assert len(indices) == len(dists) == 0

    def test_zero_radius_on_point_returns_self(self, backend, leaf_size, cloud):
        if backend == "approximate":
            pytest.skip("follower shortcut may skip the exact self-match")
        searcher = searcher_for(cloud, backend, leaf_size)
        result = searcher.radius_batch_csr(cloud[13], 0.0)
        assert 13 in result.indices
        assert np.all(result.distances == 0.0)


@pytest.mark.parametrize("backend,leaf_size", CASES)
class TestKExceedsN:
    def test_knn_clamps_to_n(self, backend, leaf_size, cloud):
        searcher = searcher_for(cloud, backend, leaf_size)
        indices, dists = searcher.knn_batch(cloud[0], len(cloud) + 50)
        assert indices.shape == (1, len(cloud))
        # The approximate backend pads a short row with (-1, inf).
        valid = indices[0] >= 0
        indices, dists = indices[0][valid], dists[0][valid]
        if backend != "approximate":
            assert len(indices) == len(cloud)
            assert len(np.unique(indices)) == len(cloud)
            assert np.all(np.diff(dists) >= 0)

    def test_knn_batch_rectangle(self, backend, leaf_size, cloud):
        searcher = searcher_for(cloud, backend, leaf_size)
        queries = cloud[:5]
        indices, dists = searcher.knn_batch(queries, len(cloud) * 2)
        assert indices.shape == dists.shape == (5, len(cloud))

    def test_k_nonpositive_raises(self, backend, leaf_size, cloud):
        searcher = searcher_for(cloud, backend, leaf_size)
        with pytest.raises(ValueError):
            searcher.knn_batch(cloud[0], 0)


class TestDuplicatePoints:
    """Exact duplicates manufacture ties; the shared (distance, index)
    rule must hold on every exact backend."""

    @pytest.fixture()
    def dup_cloud(self):
        rng = np.random.default_rng(8)
        base = rng.uniform(-2, 2, size=(40, 3))
        return np.vstack([base, base, base[:5]])  # every point at least twice

    @pytest.mark.parametrize("backend,leaf_size", EXACT_CASES)
    def test_nn_prefers_lowest_index(self, backend, leaf_size, dup_cloud):
        searcher = searcher_for(dup_cloud, backend, leaf_size)
        # Query the second copy of each point: the first copy wins the tie.
        indices, dists = searcher.nn_batch(dup_cloud[40:80])
        assert np.all(dists == 0.0)
        assert np.array_equal(indices, np.arange(40))

    @pytest.mark.parametrize("backend,leaf_size", EXACT_CASES)
    def test_radius_returns_all_copies(self, backend, leaf_size, dup_cloud):
        searcher = searcher_for(dup_cloud, backend, leaf_size)
        indices = searcher.radius_batch_csr(dup_cloud[3], 1e-12).indices
        copies = {3, 43, 83}  # base, duplicate block, head slice
        assert copies.issubset(set(indices.tolist()))
        assert np.all(np.diff(indices) > 0)  # ascending-index contract

    @pytest.mark.parametrize("backend,leaf_size", EXACT_CASES)
    def test_knn_tie_order_matches_bruteforce(self, backend, leaf_size, dup_cloud):
        reference = searcher_for(dup_cloud, "bruteforce", leaf_size)
        searcher = searcher_for(dup_cloud, backend, leaf_size)
        bi, bd = reference.knn_batch(dup_cloud[:10], 6)
        si, sd = searcher.knn_batch(dup_cloud[:10], 6)
        # The tie-broken index order is the cross-backend contract;
        # distances agree only to the last ulp (the two-stage leaf scan
        # accumulates squared distances in another order).
        assert np.array_equal(bi, si)
        np.testing.assert_allclose(bd, sd, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("backend,leaf_size", CASES)
class TestSinglePointCloud:
    def test_all_queries_resolve(self, backend, leaf_size):
        point = np.array([[1.0, -2.0, 0.5]])
        searcher = searcher_for(point, backend, leaf_size)
        index, dist = searcher.nn_batch(np.zeros(3))
        assert index.tolist() == [0]
        assert dist[0] == pytest.approx(np.sqrt(5.25))
        indices, dists = searcher.knn_batch(np.zeros(3), 10)
        assert indices.tolist() == [[0]]
        near = searcher.radius_batch_csr(np.array([1.0, -2.0, 0.5]), 0.1)
        assert near.indices.tolist() == [0] and near.distances.tolist() == [0.0]
        far = searcher.radius_batch_csr(np.zeros(3), 0.1)
        assert far.counts.tolist() == [0]


@pytest.mark.parametrize("backend,leaf_size", CASES)
class TestInvalidInputs:
    def test_empty_cloud_rejected_at_build(self, backend, leaf_size):
        with pytest.raises(ValueError):
            searcher_for(np.empty((0, 3)), backend, leaf_size)

    def test_negative_radius_rejected(self, backend, leaf_size, cloud):
        searcher = searcher_for(cloud, backend, leaf_size)
        with pytest.raises(ValueError):
            searcher.radius_batch_csr(cloud[0], -0.5)


# Every (entry point, invalid batch) pair: nn and kNN take the query
# cases, radius also takes the radius cases.
ENTRY_CASES = [
    (entry, case)
    for entry in ("nn_batch", "knn_batch", "radius_batch_csr")
    for case in (INVALID_BATCHES if entry == "radius_batch_csr" else QUERY_CASES)
]


def call(target, entry, queries, r, *stats):
    if entry == "nn_batch":
        return target.nn_batch(queries, *stats)
    if entry == "knn_batch":
        return target.knn_batch(queries, 3, *stats)
    return target.radius_batch_csr(queries, r, *stats)


def total_leaders(index):
    """Leaders registered so far (approximate backend; 0 elsewhere)."""
    return getattr(index, "total_leaders", 0)


@pytest.mark.parametrize("backend,leaf_size", CASES)
class TestBatchValidation:
    """An invalid batch raises before it charges a counter or registers
    a leader: a wrong shape, a NaN or infinite coordinate in any row, or
    a negative or NaN radius."""

    @pytest.mark.parametrize("entry,case", ENTRY_CASES)
    def test_backend_rejects_untouched(self, backend, leaf_size, cloud, entry, case):
        queries, r = INVALID_BATCHES[case]
        index = index_for(cloud, backend, leaf_size)
        stats = SearchStats()
        with pytest.raises(ValueError):
            call(index, entry, queries, r, stats)
        assert stats == SearchStats()
        assert total_leaders(index) == 0

    @pytest.mark.parametrize("filled", [False, True], ids=["fresh", "cache-filled"])
    @pytest.mark.parametrize("entry,case", ENTRY_CASES)
    def test_searcher_rejects_untouched(
        self, backend, leaf_size, cloud, entry, case, filled
    ):
        """Also with a filled nested-radius cache, which a radius call
        naming its rows would otherwise serve without a search."""
        queries, r = INVALID_BATCHES[case]
        index = index_for(cloud, backend, leaf_size)
        # The cache belongs to the exact index; the approximate backend's
        # searcher bypasses it, as in the pipeline.
        cache = RadiusReuseCache(exact_index(index), max_radius=1.0)
        searcher = NeighborSearcher(index, SearchStats(), 0.0, reuse=cache)
        if filled:
            exact = NeighborSearcher(cache.index, SearchStats(), 0.0, reuse=cache)
            exact.radius_batch_csr(cloud, 0.5, self_indices=np.arange(len(cloud)))
            assert cache.filled
        if entry == "radius_batch_csr":
            rows = np.arange(len(queries))
            with pytest.raises(ValueError):
                searcher.radius_batch_csr(queries, r, self_indices=rows)
            with pytest.raises(ValueError):
                searcher.radius_batch(queries, r, self_indices=rows)
        else:
            with pytest.raises(ValueError):
                call(searcher, entry, queries, r)
        assert searcher.stats == SearchStats()
        assert total_leaders(index) == 0

    def test_a_served_call_rejects_what_a_fresh_search_rejects(
        self, backend, leaf_size, cloud
    ):
        """A cache filled at r = 1.0 does not serve r = -0.5 or NaN from
        its entries; the call raises, as a fresh search does."""
        index = index_for(cloud, backend, leaf_size)
        cache = RadiusReuseCache(exact_index(index), max_radius=1.0)
        searcher = NeighborSearcher(cache.index, SearchStats(), 0.0, reuse=cache)
        rows = np.arange(len(cloud))
        searcher.radius_batch_csr(cloud, 1.0, self_indices=rows)
        before = replace(searcher.stats)
        for r in (-0.5, np.nan):
            with pytest.raises(ValueError):
                searcher.radius_batch_csr(cloud, r, self_indices=rows)
            with pytest.raises(ValueError):
                cache.index.radius_batch_csr(cloud, r)
        assert searcher.stats == before
