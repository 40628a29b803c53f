"""Batch/scalar parity: batched queries must be bit-identical to
per-query calls on every backend, with and without error injectors.

These are the acceptance tests of the batch query layer: no tolerance
comparisons — indices and distances must match exactly, including tie
cases manufactured through duplicated points.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kdtree.stats import SearchStats
from repro.registration.error_injection import (
    IdentityInjector,
    KthNeighborInjector,
    ShellRadiusInjector,
)
from repro.registration.search import NeighborSearcher, SearchConfig, build_searcher

BACKENDS = ("canonical", "twostage", "approximate", "bruteforce", "gridhash")


def make_cloud(seed: int, n: int, duplicates: bool = False) -> np.ndarray:
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 3)) * 3.0
    if duplicates:
        # Exact duplicates manufacture distance ties; the deterministic
        # tie rules must agree between scalar and batch paths.
        points = np.vstack([points, points[:: max(1, n // 7)]])
    return points


def make_queries(seed: int, points: np.ndarray, n_queries: int) -> np.ndarray:
    rng = np.random.default_rng(seed + 1)
    near = points[rng.integers(0, len(points), size=n_queries // 2)]
    near = near + rng.normal(size=near.shape) * 0.05
    far = rng.normal(size=(n_queries - len(near), 3)) * 4.0
    return np.vstack([near, far])


def pair_of_searchers(points, backend, injector=None):
    """Two independently built searchers (fresh approximate leader state
    each) so the scalar loop and the batch see identical start states."""
    config = SearchConfig(backend=backend, leaf_size=16)
    scalar = build_searcher(points, config, injector=injector)
    batched = build_searcher(points, config, injector=injector)
    return scalar, batched


@pytest.mark.parametrize("backend", BACKENDS)
@given(seed=st.integers(0, 2**32 - 1), duplicates=st.booleans())
@settings(max_examples=10, deadline=None)
def test_nn_batch_parity(backend, seed, duplicates):
    points = make_cloud(seed, 60, duplicates)
    queries = make_queries(seed, points, 20)
    scalar, batched = pair_of_searchers(points, backend)
    expected = [scalar.nn(q) for q in queries]
    indices, dists = batched.nn_batch(queries)
    assert np.array_equal(indices, np.array([e[0] for e in expected]))
    assert np.array_equal(dists, np.array([e[1] for e in expected]))


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 100),
    duplicates=st.booleans(),
)
@settings(max_examples=10, deadline=None)
def test_knn_batch_parity(backend, seed, k, duplicates):
    """Includes k > n: results are rectangular (Q, min(k, n))."""
    points = make_cloud(seed, 50, duplicates)
    queries = make_queries(seed, points, 12)
    scalar, batched = pair_of_searchers(points, backend)
    indices, dists = batched.knn_batch(queries, k)
    assert indices.shape == dists.shape == (len(queries), min(k, len(points)))
    for i, q in enumerate(queries):
        row_idx, row_dist = scalar.knn(q, k)
        # The approximate backend pads short rows with (-1, inf).
        assert np.array_equal(indices[i, : len(row_idx)], row_idx)
        assert np.array_equal(dists[i, : len(row_dist)], row_dist)
        assert np.all(indices[i, len(row_idx) :] == -1)
        assert np.all(np.isinf(dists[i, len(row_dist) :]))


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.sampled_from([0.0, 1e-6, 0.4, 1.5, 50.0]),
    sort=st.booleans(),
    duplicates=st.booleans(),
)
@settings(max_examples=10, deadline=None)
def test_radius_batch_parity(backend, seed, r, sort, duplicates):
    """Includes r=0 and tiny r (empty result sets) and huge r (all)."""
    points = make_cloud(seed, 60, duplicates)
    queries = make_queries(seed, points, 15)
    scalar, batched = pair_of_searchers(points, backend)
    all_indices, all_dists = batched.radius_batch(queries, r, sort=sort)
    assert len(all_indices) == len(all_dists) == len(queries)
    for i, q in enumerate(queries):
        row_idx, row_dist = scalar.radius(q, r, sort=sort)
        assert np.array_equal(all_indices[i], row_idx)
        assert np.array_equal(all_dists[i], row_dist)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "injector",
    [
        IdentityInjector(),
        KthNeighborInjector(k=3),
        ShellRadiusInjector(r1=0.2, r2=1.2),
    ],
    ids=["identity", "kth", "shell"],
)
def test_injected_batch_parity(backend, injector):
    points = make_cloud(7, 70)
    queries = make_queries(7, points, 18)
    scalar, batched = pair_of_searchers(points, backend, injector=injector)

    expected = [scalar.nn(q) for q in queries]
    indices, dists = batched.nn_batch(queries)
    assert np.array_equal(indices, np.array([e[0] for e in expected]))
    assert np.array_equal(dists, np.array([e[1] for e in expected]))

    scalar, batched = pair_of_searchers(points, backend, injector=injector)
    all_indices, all_dists = batched.radius_batch(queries, 0.9)
    for i, q in enumerate(queries):
        row_idx, row_dist = scalar.radius(q, 0.9)
        assert np.array_equal(all_indices[i], row_idx)
        assert np.array_equal(all_dists[i], row_dist)

    scalar, batched = pair_of_searchers(points, backend, injector=injector)
    indices, dists = batched.knn_batch(queries, 4)
    for i, q in enumerate(queries):
        row_idx, row_dist = scalar.knn(q, 4)
        assert np.array_equal(indices[i, : len(row_idx)], row_idx)
        assert np.array_equal(dists[i, : len(row_dist)], row_dist)


def test_scalar_injector_fallback():
    """Third-party injectors without batch hooks fall back to a loop."""

    class ScalarOnlyInjector:
        def nn(self, index, query, stats):
            return index.nn(query, stats)

        def knn(self, index, query, k, stats):
            return index.knn(query, k, stats)

        def radius(self, index, query, r, stats, sort=False):
            return index.radius(query, r, stats, sort=sort)

    points = make_cloud(3, 40)
    queries = make_queries(3, points, 10)
    plain = build_searcher(points, SearchConfig(backend="twostage"))
    wrapped = build_searcher(
        points, SearchConfig(backend="twostage"), injector=ScalarOnlyInjector()
    )
    for (a, b), (c, d) in [
        (plain.nn_batch(queries), wrapped.nn_batch(queries)),
        (plain.knn_batch(queries, 3), wrapped.knn_batch(queries, 3)),
    ]:
        assert np.array_equal(np.asarray(a), np.asarray(c))
        assert np.array_equal(np.asarray(b), np.asarray(d))


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_stats_per_query_counters(backend):
    """One batch charges one ``batches`` tick but exact per-query counts."""
    points = make_cloud(11, 80)
    queries = make_queries(11, points, 25)
    stats = SearchStats()
    searcher = build_searcher(
        points, SearchConfig(backend=backend, leaf_size=16), stats=stats
    )
    searcher.nn_batch(queries)
    assert stats.batches == 1
    assert stats.queries == len(queries)
    assert stats.results_returned == len(queries)
    searcher.radius_batch(queries, 0.8)
    assert stats.batches == 2
    assert stats.queries == 2 * len(queries)


@pytest.mark.parametrize("backend", BACKENDS)
def test_radius_stats_match_scalar(backend):
    """Radius batch work counters equal the scalar loop's exactly (the
    pruning decisions are query-independent)."""
    if backend == "approximate":
        pytest.skip("leader state makes scalar-loop stats the definition")
    points = make_cloud(13, 90)
    queries = make_queries(13, points, 20)
    config = SearchConfig(backend=backend, leaf_size=16)
    s1, s2 = SearchStats(), SearchStats()
    scalar = build_searcher(points, config, stats=s1)
    batched = build_searcher(points, config, stats=s2)
    for q in queries:
        scalar.radius(q, 0.7)
    batched.radius_batch(queries, 0.7)
    assert (s1.nodes_visited, s1.traversal_steps, s1.pruned_subtrees) == (
        s2.nodes_visited,
        s2.traversal_steps,
        s2.pruned_subtrees,
    )


class TestCanonicalFrontierParity:
    """The canonical KD-tree's level-synchronous frontier sweep must be
    bit-identical to a loop over its scalar searches.  Radius sweeps
    also charge identical work counters (radius pruning is
    bound-independent, so the frontier replays the exact schedule);
    nn/knn frontiers tighten their bounds in level order rather than
    depth-first order, so only their results — not their node visit
    counts — are pinned."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        duplicates=st.booleans(),
        k=st.integers(1, 80),
        r=st.sampled_from([0.0, 1e-6, 0.4, 1.5, 50.0]),
    )
    @settings(max_examples=15, deadline=None)
    def test_frontier_equals_sequential(self, seed, duplicates, k, r):
        from repro.kdtree.tree import KDTree

        points = make_cloud(seed, 70, duplicates)
        queries = make_queries(seed, points, 18)
        tree = KDTree(points)

        s_seq, s_fast = SearchStats(), SearchStats()
        loop = [tree.nn(q, s_seq) for q in queries]
        fi, fd = tree.nn_batch(queries, s_fast)
        assert np.array_equal([i for i, _ in loop], fi)
        assert np.array_equal([d for _, d in loop], fd)
        assert (s_seq.queries, s_seq.results_returned) == (
            s_fast.queries,
            s_fast.results_returned,
        )

        s_seq, s_fast = SearchStats(), SearchStats()
        loop = [tree.knn(q, k, s_seq) for q in queries]
        fi, fd = tree.knn_batch(queries, k, s_fast)
        assert np.array_equal([i for i, _ in loop], fi)
        assert np.array_equal([d for _, d in loop], fd)
        assert (s_seq.queries, s_seq.results_returned) == (
            s_fast.queries,
            s_fast.results_returned,
        )

        for sort in (False, True):
            s_seq, s_fast = SearchStats(), SearchStats()
            loop = [tree.radius(q, r, s_seq, sort=sort) for q in queries]
            fi, fd = tree.radius_batch(queries, r, s_fast, sort=sort)
            for (a, c), b, d in zip(loop, fi, fd):
                assert np.array_equal(a, b) and np.array_equal(c, d)
            assert s_seq == s_fast


def test_uniform_points_property():
    points = make_cloud(17, 30)
    for backend in BACKENDS:
        searcher = build_searcher(points, SearchConfig(backend=backend))
        assert np.array_equal(searcher.points, points)
        assert np.array_equal(searcher.index.points, points)
