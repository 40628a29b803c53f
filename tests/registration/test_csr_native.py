"""CSR-native radius path.

Every backend produces radius results as one flat
:class:`~repro.core.ragged.RaggedNeighborhoods`, and the one list view,
``NeighborSearcher.radius_batch``, is nothing but that CSR result sliced
at the delivery edge.  These tests pin the bit-identity of the two for
every backend, that a batch answers each row as a 1-row batch does,
the edge cases the flat layout must survive (empty rows, duplicate
queries, exact distance ties, zero queries), the chunk-size invariance
of the brute-force flat kernel, the ``csr_results`` stats accounting,
and the injector / reuse-cache CSR hooks.  The backend checks also run
the two-stage tree at both ends of the leaf-size sweep
(:mod:`tests.registration.search_cases`).
"""

import numpy as np
import pytest

from repro.core.ragged import RaggedNeighborhoods, csr_radius_select_csr
from repro.kdtree import SearchStats, bruteforce
from repro.registration import SearchConfig, build_searcher
from repro.registration.error_injection import ShellRadiusInjector
from repro.registration.search import RadiusReuseCache, build_index

from .search_cases import search_cases

CASES = search_cases()


@pytest.fixture
def points(rng):
    return rng.normal(size=(180, 3))


def fresh(points, backend, leaf_size=SearchConfig.leaf_size, **kwargs):
    """A searcher over a freshly built index.

    Parity comparisons always build two independent indices so the
    stateful approximate backend sees identical leader state on both
    sides.
    """
    config = SearchConfig(backend=backend, leaf_size=leaf_size)
    return build_searcher(points, config, **kwargs)


def assert_csr_matches_lists(result, indices, dists):
    assert isinstance(result, RaggedNeighborhoods)
    got_idx, got_dist = result.to_list_pair()
    assert len(got_idx) == len(indices)
    for got_i, got_d, exp_i, exp_d in zip(got_idx, got_dist, indices, dists):
        assert np.array_equal(got_i, exp_i)
        assert np.array_equal(got_d, exp_d)


def assert_well_formed(result):
    offsets = result.offsets
    assert offsets.dtype == np.int64
    assert offsets[0] == 0
    assert offsets[-1] == result.n_entries == len(result.indices)
    assert np.all(np.diff(offsets) >= 0)
    assert result.distances is not None
    assert len(result.distances) == result.n_entries


class TestBackendParity:
    @pytest.mark.parametrize("backend,leaf_size", CASES)
    @pytest.mark.parametrize("sort", [False, True])
    def test_csr_equals_list_path(self, points, rng, backend, leaf_size, sort):
        queries = rng.normal(size=(40, 3))
        csr = fresh(points, backend, leaf_size).radius_batch_csr(queries, 0.8, sort=sort)
        exp_idx, exp_dist = fresh(points, backend, leaf_size).radius_batch(
            queries, 0.8, sort=sort
        )
        assert_well_formed(csr)
        assert_csr_matches_lists(csr, exp_idx, exp_dist)

    @pytest.mark.parametrize("backend,leaf_size", CASES)
    @pytest.mark.parametrize("sort", [False, True])
    def test_csr_equals_scalar_loop(self, points, rng, backend, leaf_size, sort):
        """A batch answers each row as a 1-row batch does, in row order
        (the approximate backend's leader state included)."""
        queries = rng.normal(size=(15, 3))
        csr = fresh(points, backend, leaf_size).radius_batch_csr(queries, 0.7, sort=sort)
        single = fresh(points, backend, leaf_size)
        got_idx, got_dist = csr.to_list_pair()
        for row, query in enumerate(queries):
            one = single.radius_batch_csr(query, 0.7, sort=sort)
            assert np.array_equal(got_idx[row], one.indices)
            assert np.array_equal(got_dist[row], one.distances)

    @pytest.mark.parametrize("backend,leaf_size", CASES)
    def test_all_rows_empty(self, points, rng, backend, leaf_size):
        queries = rng.normal(size=(8, 3)) + 100.0
        csr = fresh(points, backend, leaf_size).radius_batch_csr(queries, 1e-9)
        assert_well_formed(csr)
        assert csr.n_segments == 8
        assert csr.n_entries == 0
        assert np.array_equal(csr.counts, np.zeros(8, dtype=np.int64))

    @pytest.mark.parametrize("backend,leaf_size", CASES)
    def test_zero_queries(self, points, backend, leaf_size):
        csr = fresh(points, backend, leaf_size).radius_batch_csr(np.empty((0, 3)), 0.5)
        assert_well_formed(csr)
        assert csr.n_segments == 0
        assert csr.n_entries == 0

    @pytest.mark.parametrize("backend,leaf_size", CASES)
    @pytest.mark.parametrize("sort", [False, True])
    def test_duplicate_queries_and_ties(self, backend, leaf_size, sort):
        # Integer grid: every query sits on a lattice point, so the
        # shell at distance 1.0 is a 6-way exact tie, and repeated
        # query rows must reproduce byte-identical segments.
        axes = np.arange(4, dtype=np.float64)
        grid = np.stack(np.meshgrid(axes, axes, axes), axis=-1).reshape(-1, 3)
        queries = grid[[21, 21, 42, 21, 42]]
        csr = fresh(grid, backend, leaf_size).radius_batch_csr(queries, 1.0, sort=sort)
        exp_idx, exp_dist = fresh(grid, backend, leaf_size).radius_batch(
            queries, 1.0, sort=sort
        )
        assert_well_formed(csr)
        assert_csr_matches_lists(csr, exp_idx, exp_dist)
        got_idx, got_dist = csr.to_list_pair()
        for dup, orig in ((1, 0), (3, 0), (4, 2)):
            assert np.array_equal(got_idx[dup], got_idx[orig])
            assert np.array_equal(got_dist[dup], got_dist[orig])


class TestBruteforceChunking:
    """The flat brute-force kernel is invariant to its chunk schedule."""

    @pytest.mark.parametrize("chunk", [1, 3, 7, 64])
    @pytest.mark.parametrize("sort", [False, True])
    def test_chunk_boundary_invariance(self, rng, monkeypatch, chunk, sort):
        points = rng.normal(size=(120, 3))
        queries = rng.normal(size=(50, 3))
        reference = bruteforce.radius_batch_csr(points, queries, 0.9, sort=sort)
        monkeypatch.setattr(
            bruteforce, "query_chunk", lambda n_points, n_queries: chunk
        )
        chunked = bruteforce.radius_batch_csr(points, queries, 0.9, sort=sort)
        assert np.array_equal(chunked.indices, reference.indices)
        assert np.array_equal(chunked.offsets, reference.offsets)
        assert np.array_equal(chunked.distances, reference.distances)


class TestStatsAccounting:
    def test_csr_entry_point_counts(self, points, rng):
        stats = SearchStats()
        searcher = fresh(points, "twostage", stats=stats)
        queries = rng.normal(size=(12, 3))
        searcher.radius_batch_csr(queries, 0.5)
        assert stats.csr_results == 12
        assert stats.queries == 12

    def test_legacy_wrapper_does_not_count(self, points, rng):
        stats = SearchStats()
        searcher = fresh(points, "twostage", stats=stats)
        searcher.radius_batch(rng.normal(size=(12, 3)), 0.5)
        assert stats.csr_results == 0
        assert stats.queries == 12

    def test_csr_injector_counts(self, points, rng):
        stats = SearchStats()
        searcher = fresh(
            points,
            "twostage",
            stats=stats,
            injector=ShellRadiusInjector(r1=0.2, r2=0.8),
        )
        searcher.radius_batch_csr(rng.normal(size=(9, 3)), 0.5)
        assert stats.csr_results == 9


class TestInjectorParity:
    @pytest.mark.parametrize("sort", [False, True])
    def test_shell_csr_matches_scalar_shell(self, points, rng, sort):
        """The shell is the r2 ball of the brute-force reference, masked
        to distances >= r1."""
        shell = ShellRadiusInjector(r1=0.3, r2=0.9)
        queries = rng.normal(size=(20, 3))
        searcher = fresh(points, "bruteforce", injector=shell)
        got_idx, got_dist = searcher.radius_batch_csr(
            queries, 0.5, sort=sort
        ).to_list_pair()
        for row, query in enumerate(queries):
            exp_i, exp_d = bruteforce.radius(points, query, 0.9, sort=sort)
            keep = exp_d >= 0.3
            assert np.array_equal(got_idx[row], exp_i[keep])
            assert np.array_equal(got_dist[row], exp_d[keep])


class TestReuseCacheCSR:
    @pytest.mark.parametrize("sort", [False, True])
    @pytest.mark.parametrize("r", [0.4, 1.0])
    def test_serve_csr_matches_serve(self, points, rng, sort, r):
        """Each served row equals a fresh 1-row search of that row, up to
        the cached radius itself."""
        index, _ = build_index(points, SearchConfig(backend="twostage"))
        cache = RadiusReuseCache(index, max_radius=1.0)
        cache.fill(SearchStats())
        rows = rng.choice(len(points), size=60, replace=False).astype(np.int64)
        fresh_rows = [index.radius_batch_csr(points[row], r, sort=sort) for row in rows]
        csr = cache.serve_csr(rows, r, sort=sort)
        assert_well_formed(csr)
        assert_csr_matches_lists(
            csr,
            [one.indices for one in fresh_rows],
            [one.distances for one in fresh_rows],
        )

    @pytest.mark.parametrize("sort", [False, True])
    def test_serve_csr_matches_fresh_search(self, points, rng, sort):
        index, _ = build_index(points, SearchConfig(backend="twostage"))
        cache = RadiusReuseCache(index, max_radius=1.0)
        cache.fill(SearchStats())
        rows = rng.choice(len(points), size=40, replace=False).astype(np.int64)
        csr = cache.serve_csr(rows, 0.6, sort=sort)
        direct = index.radius_batch_csr(points[rows], 0.6, sort=sort)
        assert np.array_equal(csr.indices, direct.indices)
        assert np.array_equal(csr.offsets, direct.offsets)
        assert np.array_equal(csr.distances, direct.distances)

    @pytest.mark.parametrize("sort", [False, True])
    def test_all_rows_equal_row_by_row_selection(self, sort):
        """Serving every row in order (NE's and Harris's self-queries)
        filters the flat arrays in one pass; it must equal the row-by-row
        gather: empty segments, a hit at exactly ``r`` (dyadic squared
        distances, so ``sq == r * r`` is exact) and tied distances."""
        lists = [[4, 7, 9], [], [0, 2, 3, 5], [], [], [1], [6, 8]]
        sq_lists = [[0.25, 0.0, 1.0], [], [1.0, 0.25, 2.0, 0.25], [], [], [4.0], [0.5, 0.0]]
        cached = RaggedNeighborhoods.from_lists(lists, sq_lists)
        sq = cached.distances
        for r in (0.5, 1.0, 1.5, 2.5):
            args = (cached.indices, cached.offsets, sq, np.sqrt(sq))
            got = csr_radius_select_csr(*args, np.arange(len(lists)), r, sort=sort)
            rows = [
                csr_radius_select_csr(*args, np.array([row, row]), r, sort=sort)
                for row in range(len(lists))
            ]
            assert_well_formed(got)
            assert_csr_matches_lists(
                got,
                [one.to_lists()[0] for one in rows],
                [one.to_list_pair()[1][0] for one in rows],
            )
        got = csr_radius_select_csr(*args, np.arange(len(lists)), 1.0)
        assert got.to_lists()[2].tolist() == [0, 2, 5]

    @pytest.mark.parametrize("sort", [False, True])
    def test_serve_all_rows_matches_fresh_search(self, sort):
        """A dyadic grid: many neighbors sit at exactly the served radius."""
        grid = np.stack(
            np.meshgrid(*[np.arange(6) * 0.5] * 3, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        index, _ = build_index(grid, SearchConfig(backend="twostage"))
        cache = RadiusReuseCache(index, max_radius=1.5)
        cache.fill(SearchStats())
        for r in (0.5, 1.0):
            csr = cache.serve_csr(np.arange(len(grid)), r, sort=sort)
            direct = index.radius_batch_csr(grid, r, sort=sort)
            assert np.array_equal(csr.indices, direct.indices)
            assert np.array_equal(csr.offsets, direct.offsets)
            assert np.array_equal(csr.distances, direct.distances)
