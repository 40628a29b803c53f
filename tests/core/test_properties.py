"""Property-based tests for the two-stage KD-tree and approximate search."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    ApproximateSearch,
    ApproximateSearchConfig,
    TraceTable,
    TwoStageKDTree,
)
from repro.kdtree import SearchStats, bruteforce


@st.composite
def cloud_height_queries(draw):
    ndim = draw(st.integers(1, 4))
    n = draw(st.integers(1, 80))
    coarse = st.floats(-20, 20, allow_nan=False).map(lambda x: round(x, 1))
    points = draw(hnp.arrays(np.float64, (n, ndim), elements=coarse))
    height = draw(st.integers(0, 7))
    n_queries = draw(st.integers(1, 4))
    queries = draw(hnp.arrays(np.float64, (n_queries, ndim), elements=coarse))
    return points, height, queries


@given(data=cloud_height_queries())
def test_twostage_nn_exact_for_any_height(data):
    """Exact two-stage search must equal brute force at every height —
    the data structure changes work, never answers (paper Sec. 4.1)."""
    points, height, queries = data
    tree = TwoStageKDTree(points, top_height=height)
    for query in queries:
        _, dist = tree.nn(query)
        _, bf_dist = bruteforce.nn(points, query)
        assert np.isclose(dist, bf_dist, atol=1e-9)


@given(data=cloud_height_queries(), radius=st.floats(0, 15, allow_nan=False))
def test_twostage_radius_exact_for_any_height(data, radius):
    points, height, queries = data
    tree = TwoStageKDTree(points, top_height=height)
    for query in queries:
        indices, _ = tree.radius(query, radius)
        bf_indices, _ = bruteforce.radius(points, query, radius)
        assert set(indices.tolist()) == set(bf_indices.tolist())


@given(data=cloud_height_queries(), k=st.integers(1, 8))
def test_twostage_knn_exact_for_any_height(data, k):
    points, height, queries = data
    tree = TwoStageKDTree(points, top_height=height)
    for query in queries:
        _, dists = tree.knn(query, k)
        _, bf_dists = bruteforce.knn(points, query, k)
        assert np.allclose(dists, bf_dists, atol=1e-9)


@given(data=cloud_height_queries())
def test_leaf_sets_and_top_nodes_partition(data):
    """Every point lives in exactly one place: a top-tree node or one
    leaf set."""
    points, height, _ = data
    tree = TwoStageKDTree(points, top_height=height)
    members = [tree.leaf_set_indices(i) for i in range(tree.n_leaf_sets)]
    flat = np.concatenate(members) if members else np.empty(0, dtype=np.int64)
    assert len(flat) + tree.n_top_nodes == len(points)
    assert len(set(flat.tolist())) == len(flat)


@given(data=cloud_height_queries())
def test_trace_accounting_consistent(data):
    """Trace counters must agree with the stats accumulator exactly."""
    points, height, queries = data
    tree = TwoStageKDTree(points, top_height=height)
    stats = SearchStats()
    traces = []
    for query in queries:
        tree.nn(query, stats, traces)
    assert sum(t.nodes_visited for t in traces) == stats.nodes_visited
    assert sum(t.toptree_visits for t in traces) <= stats.traversal_steps


@given(data=cloud_height_queries(), radius=st.floats(0, 15, allow_nan=False))
def test_traced_batch_equals_scalar_and_untraced(data, radius):
    """Traced vs untraced: the lockstep traced batches record exactly the
    scalar searches' traces (one table equal to the scalar records') and
    counters, and return what both the scalar searches and the untraced
    batches return, bit for bit."""
    points, height, queries = data
    tree = TwoStageKDTree(points, top_height=height)

    stats, trace = SearchStats(), []
    idx, dist = tree.nn_batch(queries, stats, trace=trace)
    scalar_stats, scalar_trace = SearchStats(), []
    scalar = [tree.nn(query, scalar_stats, scalar_trace) for query in queries]
    assert trace == [TraceTable.from_records(scalar_trace)]
    assert stats == scalar_stats
    assert idx.tolist() == [i for i, _ in scalar]
    assert dist.tobytes() == np.array([d for _, d in scalar]).tobytes()
    untraced_idx, untraced_dist = tree.nn_batch(queries)
    assert np.array_equal(idx, untraced_idx)
    assert dist.tobytes() == untraced_dist.tobytes()

    for sort in (False, True):
        stats, trace = SearchStats(), []
        got = tree.radius_batch_csr(queries, radius, stats, sort=sort, trace=trace)
        scalar_stats, scalar_trace = SearchStats(), []
        scalar = [
            tree.radius(query, radius, scalar_stats, sort=sort, trace=scalar_trace)
            for query in queries
        ]
        untraced = tree.radius_batch_csr(queries, radius, sort=sort)
        assert trace == [TraceTable.from_records(scalar_trace)]
        assert stats == scalar_stats
        for result in (got, untraced):
            assert result.n_segments == len(scalar)
            for row, (scalar_idx, scalar_dist) in enumerate(scalar):
                segment = slice(result.offsets[row], result.offsets[row + 1])
                assert np.array_equal(result.indices[segment], scalar_idx)
                assert result.distances[segment].tobytes() == scalar_dist.tobytes()


@given(
    data=cloud_height_queries(),
    radius=st.floats(0.1, 10, allow_nan=False),
    threshold_fraction=st.floats(0.0, 1.0),
)
@settings(max_examples=20)
def test_approx_radius_is_sound(data, radius, threshold_fraction):
    """Approximate radius results are always a *sound* subset: every
    returned point truly lies within the radius, for any threshold."""
    points, height, queries = data
    tree = TwoStageKDTree(points, top_height=height)
    search = ApproximateSearch(
        tree,
        ApproximateSearchConfig(radius_threshold_fraction=threshold_fraction),
    )
    for query in queries:
        indices, dists = search.radius(query, radius)
        assert np.all(dists <= radius + 1e-12)
        bf_indices, _ = bruteforce.radius(points, query, radius)
        assert set(indices.tolist()) <= set(bf_indices.tolist())


@given(data=cloud_height_queries(), capacity=st.integers(0, 8))
@settings(max_examples=20)
def test_leader_buffers_never_exceed_capacity(data, capacity):
    points, height, queries = data
    tree = TwoStageKDTree(points, top_height=height)
    search = ApproximateSearch(
        tree, ApproximateSearchConfig(leader_capacity=capacity)
    )
    for query in queries:
        search.nn(query)
    for leaf_id in range(tree.n_leaf_sets):
        assert search.leader_count(leaf_id) <= capacity


@given(data=cloud_height_queries())
@settings(max_examples=20)
def test_approx_never_does_more_work_per_follower(data):
    """A follower's leaf work (scan + checks) is bounded by the leaf
    set size plus the leader count — the paper's L + R <= N condition
    holds whenever the structure chose the follower path."""
    points, height, queries = data
    tree = TwoStageKDTree(points, top_height=height)
    search = ApproximateSearch(
        tree, ApproximateSearchConfig(nn_threshold=1e6)  # everyone follows
    )
    traces = []
    for query in queries:
        search.nn(query, trace=traces)
    sizes = tree.leaf_set_sizes
    for trace in traces:
        for visit in trace.leaf_visits:
            if visit.approximate:
                assert (
                    visit.scanned + visit.leader_checks
                    <= sizes[visit.leaf_id] + search.config.leader_capacity
                )
