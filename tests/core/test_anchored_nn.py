"""Differential tests for the anchored NN batch (certified reuse).

:meth:`TwoStageKDTree.nn_batch_anchored` keeps a row's previous nearest
neighbor without a search when a triangle-inequality certificate proves
it unchanged.  Whatever it certifies, every row must equal a fresh
:meth:`TwoStageKDTree.nn_batch` bit for bit, and the searched rows must
charge exactly the work a fresh batch of those rows charges.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import TwoStageKDTree
from repro.geometry import se3
from repro.kdtree import SearchStats, bruteforce
from repro.registration.error_injection import IdentityInjector
from repro.registration.search import (
    NeighborSearcher,
    NNReuseAnchor,
    SearchConfig,
    build_searcher,
)

from .test_twostage import INVALID_BATCHES, QUERY_CASES, assert_bits_equal


def anchored_run(tree, batches):
    """Run ``batches`` through anchored calls, checking each against a
    fresh batch: results bit for bit, the reuse accounting, and, when
    every row moved, the searched rows' work counters exactly.  Returns
    the number of certified rows per batch."""
    anchor = None
    reused = []
    for queries in batches:
        fresh_idx, fresh_dist = tree.nn_batch(queries)
        stats = SearchStats()
        idx, dist, new_anchor = tree.nn_batch_anchored(queries, anchor, stats)
        assert_bits_equal(idx, fresh_idx)
        assert_bits_equal(dist, fresh_dist)
        assert_bits_equal(new_anchor.indices, fresh_idx)
        n_reused = stats.reused_queries
        assert stats.queries == stats.results_returned == len(queries)
        assert stats.cache_hits == int(n_reused > 0)
        if anchor is None or np.all(np.any(anchor.queries != queries, axis=1)):
            # Every row moved, so the searched rows are exactly the ones
            # re-anchored at their new query.
            searched = np.all(new_anchor.queries == queries, axis=1)
            assert n_reused == len(queries) - np.count_nonzero(searched)
            expected = SearchStats()
            tree.nn_batch(queries[searched], expected)
            expected.queries = expected.results_returned = len(queries)
            expected.reused_queries = n_reused
            expected.cache_hits = int(n_reused > 0)
            assert stats == expected
        # r bounds every other point from below at the anchor's query:
        # never below the nearest distance, never above the second
        # nearest (up to summation-order rounding).
        _, nearest = tree.nn_batch(new_anchor.queries)
        assert np.all(new_anchor.bounds >= nearest)
        if tree.n > 1:
            _, two = bruteforce.knn_batch(tree.points, new_anchor.queries, 2)
            assert np.all(new_anchor.bounds <= two[:, 1] * (1 + 1e-12))
        reused.append(n_reused)
        anchor = new_anchor
    return reused


def rigid_path(points, n_steps, rng, angle=2e-3, shift=2e-2):
    """``points`` moved by ``n_steps`` small random rigid motions."""
    transform = np.eye(4)
    batches = [points]
    for _ in range(n_steps):
        step = se3.exp(np.r_[rng.normal(size=3) * angle, rng.normal(size=3) * shift])
        transform = step @ transform
        batches.append(se3.apply_transform(transform, points))
    return batches


def jittered_path(points, n_steps, rng, shift):
    """``points`` moved by a common drift plus per-row jitter, any ndim."""
    batches = [points]
    for _ in range(n_steps):
        drift = rng.normal(size=points.shape[1]) * shift
        jitter = rng.normal(size=points.shape) * shift / 10
        batches.append(batches[-1] + drift + jitter)
    return batches


@st.composite
def moving_clouds(draw):
    ndim = draw(st.sampled_from([3, 3, 1, 2, 4]))
    n = draw(st.integers(1, 120))
    coarse = st.floats(-10, 10, allow_nan=False).map(lambda x: round(x, 1))
    points = draw(hnp.arrays(np.float64, (n, ndim), elements=coarse))
    height = draw(st.integers(0, 6))
    n_queries = draw(st.integers(1, 40))
    queries = draw(hnp.arrays(np.float64, (n_queries, ndim), elements=coarse))
    seed = draw(st.integers(0, 2**16))
    shift = draw(st.sampled_from([0.0, 1e-3, 2e-2, 0.3]))
    return points, height, queries, seed, shift


class TestCertifiedRowsAreFresh:
    @given(case=moving_clouds())
    def test_small_motions(self, case):
        points, height, queries, seed, shift = case
        tree = TwoStageKDTree(points, top_height=height)
        rng = np.random.default_rng(seed)
        if points.shape[1] == 3:
            path = rigid_path(queries, 4, rng, angle=shift / 10, shift=shift)
        else:
            path = jittered_path(queries, 4, rng, shift)
        anchored_run(tree, path)

    @pytest.mark.parametrize("height", [0, 2, 5])
    def test_lidar_frames(self, lidar_pair, height):
        source, target, _ = lidar_pair
        tree = TwoStageKDTree(target.points, top_height=height)
        rng = np.random.default_rng(height)
        reused = anchored_run(tree, rigid_path(source.points[::4], 5, rng))
        assert reused[0] == 0 and sum(reused) > 0

    def test_duplicate_points(self, rng):
        grid = rng.integers(-4, 5, size=(60, 3)).astype(np.float64)
        points = np.vstack([grid, grid[:30], grid[:10]])  # pairs and triples
        points = points[rng.permutation(len(points))]
        queries = np.vstack([grid[:40] + 0.1, grid[:40]])
        for height in (0, 2, 4):
            tree = TwoStageKDTree(points, top_height=height)
            anchored_run(tree, rigid_path(queries, 4, rng, shift=1e-3))
            # A point with a copy never certifies: r equals its distance.
            _, _, anchor = tree.nn_batch_anchored(grid[:30], None)
            assert np.all(anchor.bounds == 0.0)

    def test_node_point_nn_sums_in_node_order(self, rng):
        """A certified top-tree node point must get the distance the
        search computes for it: summed left to right, not in the leaf
        kernel's lane order.  Offsets of mixed magnitude make the two
        orders differ in the last bit on a share of the rows."""
        points = rng.normal(size=(400, 3)) * [1.0, 30.0, 0.05]
        tree = TwoStageKDTree(points, top_height=5)
        nodes = points[tree._node_point]
        offsets = rng.normal(size=nodes.shape) * [1e-3, 3e-2, 5e-5]
        queries = nodes + offsets
        anchored_run(tree, [queries, queries])
        diff = queries - nodes
        in_order = (diff[:, 0] ** 2 + diff[:, 1] ** 2) + diff[:, 2] ** 2
        in_lanes = (diff[:, 0] ** 2 + diff[:, 2] ** 2) + diff[:, 1] ** 2
        idx, _, anchor = tree.nn_batch_anchored(queries, None)
        stats = SearchStats()
        tree.nn_batch_anchored(queries, anchor, stats)
        sharp = (idx == tree._node_point) & (in_order != in_lanes)
        assert np.count_nonzero(sharp) >= 3
        assert stats.reused_queries > 0.9 * len(queries)

    def test_zero_motion(self, lidar_pair):
        source, target, _ = lidar_pair
        tree = TwoStageKDTree.from_leaf_size(target.points, 64)
        queries = source.points[::3]
        reused = anchored_run(tree, [queries, queries, queries])
        assert reused[0] == 0 and reused[1] == reused[2] > len(queries) // 2

    def test_coordinates_near_1e5(self, lidar_pair, rng):
        source, target, _ = lidar_pair
        offset = np.array([1e5, -1e5, 1e5])
        tree = TwoStageKDTree.from_leaf_size(target.points + offset, 64)
        batches = rigid_path(source.points[::4], 4, rng, shift=1e-2)
        reused = anchored_run(tree, [batch + offset for batch in batches])
        assert sum(reused) > 0

    def test_overflowing_squares(self):
        """Squares past the float range overflow to +inf.  The other
        point's square overflows at q_a, yet at q′ it is the nearer one,
        so r must not be taken as +inf."""
        far = 2.4e154
        points = np.array([[0.0, 0.0, 0.0], [far, 0.0, 0.0]])
        tree = TwoStageKDTree(points, top_height=0)
        queries = np.array([[0.1, 0.0, 0.0]])
        moved = np.array([[1.3e154, 0.0, 0.0]])
        with np.errstate(over="ignore"):
            _, _, anchor = tree.nn_batch_anchored(queries, None)
            assert np.isfinite(anchor.bounds[0])
            assert tree.nn_batch(moved)[0][0] == 1
            assert anchored_run(tree, [queries, moved]) == [0, 0]

    def test_one_point_tree(self):
        tree = TwoStageKDTree(np.array([[0.5, -1.5, 2.0]]), top_height=3)
        queries = np.array([[0.5, -1.5, 2.0], [3.0, 4.0, -5.0]])
        _, _, anchor = tree.nn_batch_anchored(queries, None)
        assert np.all(anchor.bounds == np.inf)
        reused = anchored_run(tree, [queries, queries * 7.0, -queries])
        assert reused == [0, 2, 2]


class TestTheGap:
    """Rows on the edge of the certificate, where the anchored NN p and
    another point tie: q′ moves from q_a along the line to the other
    point, so |q′ - p| + |q′ - q_a| = r holds exactly in real numbers."""

    @staticmethod
    def pairs(n, seed=7):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            far = rng.normal(size=3)  # index 0: wins ties
            near = far + rng.normal(size=3)  # index 1: the anchored NN
            yield far, near, near + rng.uniform(0.1, 0.4) * (far - near)

    def test_on_the_gap(self):
        n_sharp = 0
        for far, near, query in self.pairs(300):
            tree = TwoStageKDTree(np.array([far, near]), top_height=0)
            _, _, anchor = tree.nn_batch_anchored(query[None], None)
            assert anchor.indices[0] == 1
            midpoint = ((far + near) / 2)[None]
            anchored_run(tree, [query[None], midpoint])
            # Rounding alone decides whether d + δ < r on this input; the
            # margin τ must keep such a row out of the certificate when
            # the fresh search breaks the tie the other way.
            d = np.linalg.norm(midpoint[0] - near)
            delta = np.linalg.norm(midpoint[0] - query)
            if d + delta < anchor.bounds[0] and tree.nn_batch(midpoint)[0][0] == 0:
                n_sharp += 1
        assert n_sharp > 0

    def test_subnormal_squares(self):
        """At coordinates near 1e-158 the squares are subnormal and
        carry only a few significant bits, so a margin relative to r
        alone lets rounding certify a wrong row; the absolute part of τ
        keeps such rows searched."""
        with np.errstate(under="ignore"):
            for far, near, query in self.pairs(100, seed=3):
                far, near, query = far * 1e-158, near * 1e-158, query * 1e-158
                tree = TwoStageKDTree(np.array([far, near]), top_height=0)
                edge = (far + near) / 2
                path = [
                    (query + step * (edge - query))[None]
                    for step in (0, 0.9, 0.99, 1, 1.01)
                ]
                assert anchored_run(tree, path) == [0] * 5

    @pytest.mark.parametrize("step", [0.0, 1 - 1e-6, 1 + 1e-6])
    def test_inside_and_outside_the_gap(self, step):
        # step 1 reaches the point where |q′ - p| + δ = r.
        certified = []
        for far, near, query in self.pairs(50, seed=11):
            tree = TwoStageKDTree(np.array([far, near]), top_height=0)
            edge = (far + near) / 2
            moved = query + step * (edge - query)
            certified += anchored_run(tree, [query[None], moved[None]])[1:]
        assert all(certified) if step < 1 else not any(certified)


class TestValidation:
    @pytest.fixture
    def points_and_anchor(self, rng):
        tree = TwoStageKDTree(rng.normal(size=(256, 3)), top_height=3)
        _, _, anchor = tree.nn_batch_anchored(rng.normal(size=(6, 3)), None)
        return tree, anchor

    @pytest.mark.parametrize("case", QUERY_CASES)
    def test_rejects_before_stats_or_anchor_change(self, points_and_anchor, case):
        tree, anchor = points_and_anchor
        queries, _ = INVALID_BATCHES[case]
        kept = tuple(np.copy(a) for a in anchor[1:])
        stats = SearchStats()
        with pytest.raises(ValueError):
            tree.nn_batch_anchored(queries, anchor, stats)
        assert stats == SearchStats()
        for before, after in zip(kept, anchor[1:]):
            assert_bits_equal(after, before)

    @pytest.mark.parametrize("case", QUERY_CASES)
    def test_searcher_keeps_the_anchor(self, points_and_anchor, case):
        tree, anchor = points_and_anchor
        queries, _ = INVALID_BATCHES[case]
        searcher = NeighborSearcher(tree, SearchStats(), 0.0)
        reuse = NNReuseAnchor()
        reuse.anchor = anchor
        with pytest.raises(ValueError):
            searcher.nn_batch(queries, reuse)
        assert reuse.anchor is anchor
        assert searcher.stats == SearchStats()

    def test_foreign_or_resized_anchor_searches_every_row(self, rng):
        points = rng.normal(size=(200, 3))
        tree, twin = (TwoStageKDTree(points, top_height=3) for _ in range(2))
        queries = rng.normal(size=(30, 3))
        _, _, foreign = twin.nn_batch_anchored(queries, None)
        _, _, own = tree.nn_batch_anchored(queries, None)
        for anchor, batch in ((foreign, queries), (own, queries[:10])):
            stats = SearchStats()
            tree.nn_batch_anchored(batch, anchor, stats)
            assert stats.reused_queries == 0
            assert stats.nodes_visited > 0


class TestSearcher:
    def test_reuse_only_on_two_stage_without_injector(self, lidar_pair):
        source, target, _ = lidar_pair
        queries = source.points[::5]
        for backend, injector, reuses in (
            ("twostage", None, True),
            ("twostage", IdentityInjector(), False),
            ("canonical", None, False),
            ("approximate", None, False),
        ):
            searcher = build_searcher(
                target.points, SearchConfig(backend=backend), injector=injector
            )
            reuse = NNReuseAnchor()
            first = searcher.nn_batch(queries, reuse)
            again = searcher.nn_batch(queries, reuse)
            assert (searcher.stats.reused_queries > 0) == reuses, backend
            assert (reuse.anchor is not None) == reuses, backend
            if backend != "approximate":
                assert_bits_equal(again[0], first[0])
                assert_bits_equal(again[1], first[1])
