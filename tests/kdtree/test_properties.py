"""Property-based tests: the KD-tree must agree with brute force on
arbitrary inputs, for every query type and dimension.

Both sum squared distances left to right and share the (distance, index)
tie rule, so the batches must agree bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.kdtree import KDTree, SearchStats, bruteforce

# Clouds: 1-60 points in 1-5 dimensions, moderate magnitudes, possibly
# with duplicate coordinates (floats from a coarse grid encourage ties).
dims = st.integers(1, 5)


@st.composite
def cloud_and_queries(draw):
    ndim = draw(dims)
    n = draw(st.integers(1, 60))
    coarse = st.floats(-50, 50, allow_nan=False).map(lambda x: round(x, 1))
    points = draw(
        hnp.arrays(np.float64, (n, ndim), elements=coarse)
    )
    n_queries = draw(st.integers(1, 5))
    queries = draw(hnp.arrays(np.float64, (n_queries, ndim), elements=coarse))
    return points, queries


@given(data=cloud_and_queries())
def test_nn_matches_bruteforce(data):
    points, queries = data
    tree = KDTree(points)
    idx, dist = tree.nn_batch(queries)
    bf_idx, bf_dist = bruteforce.nn_batch(points, queries)
    assert np.array_equal(idx, bf_idx)
    assert dist.tobytes() == bf_dist.tobytes()


@given(data=cloud_and_queries(), k=st.integers(1, 10))
def test_knn_matches_bruteforce(data, k):
    points, queries = data
    tree = KDTree(points)
    indices, dists = tree.knn_batch(queries, k)
    bf_indices, bf_dists = bruteforce.knn_batch(points, queries, k)
    assert np.array_equal(indices, bf_indices)
    assert dists.tobytes() == bf_dists.tobytes()


@given(data=cloud_and_queries(), radius=st.floats(0.0, 30.0, allow_nan=False))
def test_radius_matches_bruteforce(data, radius):
    points, queries = data
    tree = KDTree(points)
    got = tree.radius_batch_csr(queries, radius)
    expected = bruteforce.radius_batch_csr(points, queries, radius)
    assert np.array_equal(got.offsets, expected.offsets)
    assert np.array_equal(got.indices, expected.indices)
    assert got.distances.tobytes() == expected.distances.tobytes()


@given(data=cloud_and_queries())
def test_knn_is_prefix_consistent(data):
    """The k-NN list must be a prefix of the (k+1)-NN list by distance."""
    points, queries = data
    tree = KDTree(points)
    i3, d3 = tree.knn_batch(queries, 3)
    i5, d5 = tree.knn_batch(queries, 5)
    assert np.array_equal(i5[:, : i3.shape[1]], i3)
    assert np.array_equal(d5[:, : d3.shape[1]], d3)


@given(data=cloud_and_queries())
def test_stats_conservation(data):
    """Visited + pruned traversal work is bounded by tree size per query."""
    points, queries = data
    tree = KDTree(points)
    stats = SearchStats()
    tree.nn_batch(queries, stats)
    assert stats.queries == len(queries)
    assert stats.nodes_visited <= len(queries) * tree.n
    assert stats.traversal_steps >= stats.nodes_visited


@given(data=cloud_and_queries())
@settings(max_examples=15)
def test_radius_of_nn_dist_includes_nn(data):
    """Radius search at the NN distance must contain the NN itself."""
    points, queries = data
    tree = KDTree(points)
    idx, dist = tree.nn_batch(queries)
    for query, nn_idx, nn_dist in zip(queries, idx, dist):
        assert nn_idx in tree.radius_batch_csr(query, nn_dist + 1e-9).indices
