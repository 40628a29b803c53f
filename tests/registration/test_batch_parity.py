"""Differential harness: every backend's batches against an oracle.

Batches are the only query form; a single query is a 1-row batch.  A
batch is therefore checked against an independent reference, not a loop
of per-query calls:

* The exact backends — canonical, two-stage and brute force, every
  backend but the approximate one — must equal the batches of
  :mod:`repro.kdtree.bruteforce` bit for bit: indices, distances,
  offsets and tie order.
* Each error injector must equal its own definition applied to that
  oracle: the k-th neighbor is column k - 1 of the oracle's kNN (the
  last column when the cloud has fewer than k points), and the shell is
  the oracle's r2 ball masked to distances >= r1.
* The approximate backend's leader state makes each answer depend on the
  rows before it, so its batch must equal its own row-by-row path: the
  single-query methods of a twin, called in row order.

The two-stage tree also runs at both ends of the leaf-size sweep
(:mod:`tests.registration.search_cases`).

Coordinates sit on a dyadic grid (multiples of 1/64; integers and
halves near +-2**20), so every squared distance here is exact in float64
and every summation order gives the same bits.  A mismatch is then a
search error — a wrong prune, tie or order — never rounding.  (On
arbitrary floats the two-stage leaf kernel sums (dx² + dz²) + dy² while
brute force sums left to right, and the last bits may differ;
``tests/core/test_properties.py`` compares those with a tolerance.)
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ApproximateSearch, TwoStageKDTree
from repro.kdtree import KDTree, bruteforce
from repro.kdtree.stats import SearchStats
from repro.registration.error_injection import (
    IdentityInjector,
    KthNeighborInjector,
    ShellRadiusInjector,
)
from repro.registration.search import BACKENDS, SearchConfig, build_searcher

from .search_cases import search_cases

EXACT = tuple(backend for backend in BACKENDS if backend != "approximate")
CASES = search_cases(16)


def dyadic(values, scale=64):
    return np.round(np.asarray(values) * scale) / scale


def make_cloud(seed: int, n: int, duplicates: bool = False) -> np.ndarray:
    rng = np.random.default_rng(seed)
    points = dyadic(rng.normal(size=(n, 3)) * 3.0)
    if duplicates:
        # Exact duplicates manufacture distance ties; every path must
        # resolve them by the shared (distance, index) rule.
        points = np.vstack([points, points[:: max(1, n // 7)]])
    return points


def make_queries(seed: int, points: np.ndarray, n_queries: int) -> np.ndarray:
    rng = np.random.default_rng(seed + 1)
    near = points[rng.integers(0, len(points), size=n_queries // 2)]
    near = near + dyadic(rng.normal(size=near.shape) * 0.05)
    far = dyadic(rng.normal(size=(n_queries - len(near), 3)) * 4.0)
    return np.vstack([near, far])


def config_for(backend, leaf_size=16):
    return SearchConfig(backend=backend, leaf_size=leaf_size)


def pair_of_searchers(points, backend, injector=None, leaf_size=16):
    """Two independently built searchers (fresh approximate leader state
    each): one answers the batch, the twin the reference rows."""
    config = config_for(backend, leaf_size)
    return (
        build_searcher(points, config, injector=injector),
        build_searcher(points, config, injector=injector),
    )


def assert_pair_equal(got, expected):
    for a, b in zip(got, expected):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def assert_csr_equal(got, expected):
    assert np.array_equal(got.offsets, expected.offsets)
    assert np.array_equal(got.indices, expected.indices)
    assert got.distances.tobytes() == expected.distances.tobytes()


def nn_rows(nn, queries, *args):
    """A single-query NN method applied in row order, as batch arrays."""
    rows = [nn(query, *args) for query in queries]
    return (
        np.array([index for index, _ in rows], dtype=np.int64),
        np.array([dist for _, dist in rows], dtype=np.float64),
    )


def radius_rows(radius, queries, *args, **kwargs):
    """A single-query radius method applied in row order, as lists."""
    rows = [radius(query, *args, **kwargs) for query in queries]
    return [indices for indices, _ in rows], [dists for _, dists in rows]


def expected_radius(backend, points, queries, r, sort, twin):
    """Per-row (index, distance) lists the radius batch must return."""
    if backend == "approximate":
        return radius_rows(twin.index.radius, queries, r, sort=sort)
    return bruteforce.radius_batch_csr(points, queries, r, sort=sort).to_list_pair()


@pytest.mark.parametrize("backend,leaf_size", CASES)
@given(seed=st.integers(0, 2**32 - 1), duplicates=st.booleans())
@settings(max_examples=10, deadline=None)
def test_nn_batch_parity(backend, leaf_size, seed, duplicates):
    points = make_cloud(seed, 60, duplicates)
    queries = make_queries(seed, points, 20)
    searcher, twin = pair_of_searchers(points, backend, leaf_size=leaf_size)
    if backend == "approximate":
        expected = nn_rows(twin.index.nn, queries)
    else:
        expected = bruteforce.nn_batch(points, queries)
    assert_pair_equal(searcher.nn_batch(queries), expected)


@pytest.mark.parametrize("backend,leaf_size", CASES)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 100),
    duplicates=st.booleans(),
)
@settings(max_examples=10, deadline=None)
def test_knn_batch_parity(backend, leaf_size, seed, k, duplicates):
    """Includes k > n: results are rectangular (Q, min(k, n))."""
    points = make_cloud(seed, 50, duplicates)
    queries = make_queries(seed, points, 12)
    searcher, twin = pair_of_searchers(points, backend, leaf_size=leaf_size)
    indices, dists = searcher.knn_batch(queries, k)
    assert indices.shape == dists.shape == (len(queries), min(k, len(points)))
    if backend != "approximate":
        assert_pair_equal((indices, dists), bruteforce.knn_batch(points, queries, k))
        return
    for i, q in enumerate(queries):
        row_idx, row_dist = twin.index.knn(q, k)
        # The approximate backend pads short rows with (-1, inf).
        assert np.array_equal(indices[i, : len(row_idx)], row_idx)
        assert np.array_equal(dists[i, : len(row_dist)], row_dist)
        assert np.all(indices[i, len(row_idx) :] == -1)
        assert np.all(np.isinf(dists[i, len(row_dist) :]))


@pytest.mark.parametrize("backend,leaf_size", CASES)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.sampled_from([0.0, 1e-6, 0.4, 1.5, 50.0]),
    sort=st.booleans(),
    duplicates=st.booleans(),
)
@settings(max_examples=10, deadline=None)
def test_radius_batch_parity(backend, leaf_size, seed, r, sort, duplicates):
    """The searcher's list view; includes r=0 and tiny r (empty result
    sets) and huge r (all)."""
    points = make_cloud(seed, 60, duplicates)
    queries = make_queries(seed, points, 15)
    searcher, twin = pair_of_searchers(points, backend, leaf_size=leaf_size)
    all_indices, all_dists = searcher.radius_batch(queries, r, sort=sort)
    exp_indices, exp_dists = expected_radius(backend, points, queries, r, sort, twin)
    assert len(all_indices) == len(all_dists) == len(exp_indices) == len(queries)
    for got_i, got_d, exp_i, exp_d in zip(all_indices, all_dists, exp_indices, exp_dists):
        assert np.array_equal(got_i, exp_i)
        assert got_d.tobytes() == np.asarray(exp_d).tobytes()


def injected_oracle(injector, points, queries, k, r, sort=False):
    """An injector's definition applied to the brute-force oracle:
    ``(nn, knn at k, radius at r)``."""
    nn = bruteforce.nn_batch(points, queries)
    knn = bruteforce.knn_batch(points, queries, k)
    ball = bruteforce.radius_batch_csr(points, queries, r, sort=sort)
    if isinstance(injector, KthNeighborInjector):
        # Column k - 1, or the last one when the cloud has fewer points.
        kth_idx, kth_dist = bruteforce.knn_batch(points, queries, injector.k)
        nn = kth_idx[:, -1], kth_dist[:, -1]
        assert kth_idx.shape[1] == min(injector.k, len(points))
        shifted = bruteforce.knn_batch(points, queries, k + injector.k - 1)
        knn = shifted[0][:, injector.k - 1 :], shifted[1][:, injector.k - 1 :]
    elif isinstance(injector, ShellRadiusInjector):
        ball = bruteforce.radius_batch_csr(points, queries, injector.r2, sort=sort)
        ball = ball.mask(ball.distances >= injector.r1)
    return nn, knn, ball


INJECTORS = [
    IdentityInjector(),
    KthNeighborInjector(k=3),
    ShellRadiusInjector(r1=0.2, r2=1.2),
]
INJECTOR_IDS = ["identity", "kth", "shell"]


@pytest.mark.parametrize("backend,leaf_size", CASES)
@pytest.mark.parametrize("injector", INJECTORS, ids=INJECTOR_IDS)
def test_injected_batch_parity(backend, leaf_size, injector):
    points = make_cloud(7, 70)
    queries = make_queries(7, points, 18)
    if backend != "approximate":
        searcher, _ = pair_of_searchers(points, backend, injector, leaf_size)
        exp_nn, exp_knn, exp_ball = injected_oracle(injector, points, queries, 4, 0.9)
        assert_pair_equal(searcher.nn_batch(queries), exp_nn)
        assert_csr_equal(searcher.radius_batch_csr(queries, 0.9), exp_ball)
        assert_pair_equal(searcher.knn_batch(queries, 4), exp_knn)
        return
    # The injected approximate search's own row-by-row path: a twin fed
    # 1-row batches in row order, fresh leader state per entry point.
    searcher, twin = pair_of_searchers(points, backend, injector)
    rows = [twin.nn_batch(query) for query in queries]
    expected = [np.concatenate(part) for part in zip(*rows)]
    assert_pair_equal(searcher.nn_batch(queries), expected)

    searcher, twin = pair_of_searchers(points, backend, injector)
    rows = [twin.knn_batch(query, 4) for query in queries]
    expected = [np.concatenate(part) for part in zip(*rows)]
    assert_pair_equal(searcher.knn_batch(queries, 4), expected)

    searcher, twin = pair_of_searchers(points, backend, injector)
    got = searcher.radius_batch_csr(queries, 0.9)
    for i, query in enumerate(queries):
        assert_csr_equal(got.select(np.array([i])), twin.radius_batch_csr(query, 0.9))


@pytest.mark.parametrize("backend,leaf_size", CASES)
def test_batch_stats_per_query_counters(backend, leaf_size):
    """One batch charges one ``batches`` tick but exact per-query counts."""
    points = make_cloud(11, 80)
    queries = make_queries(11, points, 25)
    stats = SearchStats()
    searcher = build_searcher(points, config_for(backend, leaf_size), stats=stats)
    searcher.nn_batch(queries)
    assert stats.batches == 1
    assert stats.queries == len(queries)
    assert stats.results_returned == len(queries)
    searcher.radius_batch(queries, 0.8)
    assert stats.batches == 2
    assert stats.queries == 2 * len(queries)


WORK = ("nodes_visited", "traversal_steps", "pruned_subtrees", "leader_checks")


@pytest.mark.parametrize("backend,leaf_size", CASES)
def test_radius_stats_match_scalar(backend, leaf_size):
    """Radius batch work counters equal the sum over its rows' 1-row
    batches: radius pruning does not depend on the other queries (and
    the approximate backend's twin builds the same leader state)."""
    points = make_cloud(13, 90)
    queries = make_queries(13, points, 20)
    s1, s2 = SearchStats(), SearchStats()
    config = config_for(backend, leaf_size)
    single = build_searcher(points, config, stats=s1)
    batched = build_searcher(points, config, stats=s2)
    for q in queries:
        single.radius_batch_csr(q, 0.7)
    batched.radius_batch_csr(queries, 0.7)
    assert [getattr(s1, name) for name in WORK] == [getattr(s2, name) for name in WORK]
    assert (s1.queries, s1.results_returned) == (s2.queries, s2.results_returned)


class TestCanonicalFrontierParity:
    """The canonical KD-tree's level-synchronous frontier sweep equals
    the brute-force oracle bit for bit.  Radius sweeps also charge the
    work counters of 1-row sweeps, whose visits are a depth-first
    search's (radius pruning is bound-independent); nn/knn frontiers
    tighten their bounds in level order, so only their results and
    per-query counts are pinned."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        duplicates=st.booleans(),
        k=st.integers(1, 80),
        r=st.sampled_from([0.0, 1e-6, 0.4, 1.5, 50.0]),
    )
    @settings(max_examples=15, deadline=None)
    def test_frontier_equals_sequential(self, seed, duplicates, k, r):
        points = make_cloud(seed, 70, duplicates)
        queries = make_queries(seed, points, 18)
        tree = KDTree(points)

        stats = SearchStats()
        assert_pair_equal(
            tree.nn_batch(queries, stats), bruteforce.nn_batch(points, queries)
        )
        assert (stats.queries, stats.results_returned) == (18, 18)

        stats = SearchStats()
        assert_pair_equal(
            tree.knn_batch(queries, k, stats), bruteforce.knn_batch(points, queries, k)
        )
        assert (stats.queries, stats.results_returned) == (18, 18 * min(k, len(points)))

        for sort in (False, True):
            s_rows, s_batch = SearchStats(), SearchStats()
            for query in queries:
                tree.radius_batch_csr(query, r, s_rows, sort=sort)
            got = tree.radius_batch_csr(queries, r, s_batch, sort=sort)
            assert_csr_equal(got, bruteforce.radius_batch_csr(points, queries, r, sort=sort))
            assert s_rows == s_batch


def test_uniform_points_property():
    points = make_cloud(17, 30)
    for backend in BACKENDS:
        searcher = build_searcher(points, SearchConfig(backend=backend))
        assert np.array_equal(searcher.points, points)
        assert np.array_equal(searcher.index.points, points)


# ---------------------------------------------------------------------------
# Adversarial clouds: each builder returns (points, queries).
# ---------------------------------------------------------------------------


def _offsets_near(center, seed):
    """60 integer points within 6 of ``center`` on every axis (with copies),
    and queries on them, half a unit off them, and further out."""
    rng = np.random.default_rng(seed)
    points = center + rng.integers(-6, 7, size=(50, 3)).astype(np.float64)
    points = np.vstack([points, points[:10]])
    queries = np.vstack(
        [
            points[:8],
            points[10:18] + 0.5,
            center + rng.integers(-12, 13, size=(6, 3)) + 0.5,
            [center + [40.0, -40.0, 40.0]],
        ]
    )
    return points, queries


def _duplicates():
    points = make_cloud(3, 60, duplicates=True)
    return points, make_queries(3, points, 16)


def _lattice():
    axis = np.arange(5.0)
    points = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    queries = np.vstack(
        [points[::9], points[::11] + 0.5, [[2.0, 2.0, 2.5], [2.5, 2.5, 2.5], [-3.0, 9.0, 2.0]]]
    )
    return points, queries


def _collinear():
    t = np.arange(-20.0, 21.0)
    points = np.outer(t, [1.0, 2.0, -1.0]) / 8
    points = np.vstack([points, points[::6]])
    queries = np.vstack(
        [points[::5], points[:8] + [0.5, 0.0, 0.0], [[0.0, 0.0, 0.0], [3.0, 3.0, 3.0]]]
    )
    return points, queries


def _coplanar():
    rng = np.random.default_rng(5)
    xy = dyadic(rng.uniform(-3, 3, size=(80, 2)), 8)
    points = np.column_stack([xy, np.zeros(len(xy))])
    points = np.vstack([points, points[:7]])
    queries = np.vstack(
        [points[::9], points[:8] + [0.0, 0.0, 0.5], points[20:26] + [0.25, -0.125, 0.0]]
    )
    return points, queries


def _single_point():
    points = np.array([[0.5, -1.5, 2.0]])
    queries = np.array([[0.5, -1.5, 2.0], [1.0, -1.5, 2.0], [-3.0, 4.0, 0.5]])
    return points, queries


def _copies_of_one_point():
    points = np.tile([1.0, 2.0, 3.0], (30, 1))
    queries = np.array([[1.0, 2.0, 3.0], [1.5, 2.0, 3.0], [1.0, 2.0, 4.0], [9.0, 9.0, 9.0]])
    return points, queries


ADVERSARIAL = {
    "duplicates": _duplicates,
    "all-copies": _copies_of_one_point,
    "lattice": _lattice,
    "collinear": _collinear,
    "coplanar": _coplanar,
    "single-point": _single_point,
    "near-plus-2^20": lambda: _offsets_near(np.full(3, 2.0**20), 1),
    "near-minus-2^20": lambda: _offsets_near(np.full(3, -(2.0**20)), 2),
}
RADII = (0.0, 0.5, 1.0, 1.5, 2.5, np.inf)


@pytest.mark.parametrize("cloud", list(ADVERSARIAL))
@pytest.mark.parametrize("backend,leaf_size", search_cases(4, EXACT))
class TestAdversarialClouds:
    def test_exact_backends_equal_the_oracle(self, backend, leaf_size, cloud):
        points, queries = ADVERSARIAL[cloud]()
        searcher = build_searcher(points, config_for(backend, leaf_size))
        assert_pair_equal(searcher.nn_batch(queries), bruteforce.nn_batch(points, queries))
        for k in (1, 3, len(points) + 2):
            assert_pair_equal(
                searcher.knn_batch(queries, k), bruteforce.knn_batch(points, queries, k)
            )
        for r in RADII:
            for sort in (False, True):
                assert_csr_equal(
                    searcher.radius_batch_csr(queries, r, sort=sort),
                    bruteforce.radius_batch_csr(points, queries, r, sort=sort),
                )

    @pytest.mark.parametrize(
        "injector",
        # r1 = 0.5 and r2 = 1.0 are distances the lattice clouds hit
        # exactly, so both shell boundaries are exercised.
        [KthNeighborInjector(k=3), ShellRadiusInjector(r1=0.5, r2=1.0)],
        ids=["kth", "shell"],
    )
    def test_injectors_equal_their_definition(self, backend, leaf_size, cloud, injector):
        points, queries = ADVERSARIAL[cloud]()
        searcher = build_searcher(
            points, config_for(backend, leaf_size), injector=injector
        )
        for sort in (False, True):
            exp_nn, exp_knn, exp_ball = injected_oracle(
                injector, points, queries, 2, 1.0, sort
            )
            assert_pair_equal(searcher.nn_batch(queries), exp_nn)
            assert_pair_equal(searcher.knn_batch(queries, 2), exp_knn)
            assert_csr_equal(searcher.radius_batch_csr(queries, 1.0, sort=sort), exp_ball)


@pytest.mark.parametrize("kind", ["nn", "knn", "radius"])
@pytest.mark.parametrize("cloud", list(ADVERSARIAL))
def test_approximate_batch_equals_its_row_by_row_path(cloud, kind):
    """Same results, counters and leader buffers as the single-query
    methods called in row order on a twin."""
    points, queries = ADVERSARIAL[cloud]()
    tree = TwoStageKDTree.from_leaf_size(points, 4)
    batch, twin = ApproximateSearch(tree), ApproximateSearch(tree)
    s_batch, s_rows = SearchStats(), SearchStats()
    if kind == "nn":
        assert_pair_equal(
            batch.nn_batch(queries, s_batch), nn_rows(twin.nn, queries, s_rows)
        )
    elif kind == "knn":
        indices, dists = batch.knn_batch(queries, 3, s_batch)
        for row, query in enumerate(queries):
            exp_i, exp_d = twin.knn(query, 3, s_rows)
            # A short row is padded with (-1, inf).
            assert np.array_equal(indices[row, : len(exp_i)], exp_i)
            assert dists[row, : len(exp_d)].tobytes() == exp_d.tobytes()
            assert np.all(indices[row, len(exp_i) :] == -1)
    else:
        got = batch.radius_batch_csr(queries, 1.0, s_batch).to_list_pair()
        expected = radius_rows(twin.radius, queries, 1.0, s_rows)
        for got_i, got_d, exp_i, exp_d in zip(*got, *expected):
            assert np.array_equal(got_i, exp_i)
            assert got_d.tobytes() == exp_d.tobytes()
    assert s_batch == s_rows
    assert batch.total_leaders == twin.total_leaders
