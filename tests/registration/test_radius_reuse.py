"""Nested-radius search reuse: one inflated search, bit-identical stages.

``Pipeline.preprocess`` plans the largest radius any front-end stage
will request, runs ONE all-points radius search at that radius, and
serves every nested stage neighborhood by filtering the cached CSR
result (:class:`repro.registration.search.RadiusReuseCache`).  These
tests pin the two contracts that make that safe:

* **Bit-identity** — every preprocessing artifact (normals, keypoints,
  descriptors) is exactly what the same config produces with reuse
  disabled, across every backend and keypoint/descriptor combination.
  The golden-values re-pin of tests/integration/test_golden_values.py
  leans on this file for that claim.
* **Honest accounting** — the filling stage is charged the inflated
  search it executed; served stages charge ``queries`` /
  ``reused_queries`` / ``cache_hits`` and their filtered result counts
  but no traversal work; and the cache is bypassed in every situation
  where serving could change results (injectors, foreign indices,
  radii beyond the plan, subset-first fills).
"""

import numpy as np
import pytest

from repro.core import TwoStageKDTree
from repro.kdtree import SearchStats
from repro.registration import (
    DescriptorConfig,
    ICPConfig,
    KeypointConfig,
    Pipeline,
    PipelineConfig,
    RPCEConfig,
    SearchConfig,
)
from repro.registration.error_injection import IdentityInjector
from repro.registration.search import (
    NeighborSearcher,
    RadiusReuseCache,
    build_index,
    exact_index,
)

EXACT_BACKENDS = ("canonical", "twostage", "bruteforce", "gridhash")
ALL_BACKENDS = EXACT_BACKENDS + ("approximate",)


def reuse_pipeline(backend="twostage", keypoints=None, descriptor=None):
    config = PipelineConfig(
        keypoints=keypoints
        or KeypointConfig(method="harris", params={"radius": 1.0}, min_keypoints=8),
        descriptor=descriptor or DescriptorConfig(method="fpfh", radius=1.0),
        icp=ICPConfig(rpce=RPCEConfig(max_distance=1.5), max_iterations=5),
        voxel_downsample=1.0,
        search=SearchConfig(backend=backend, leaf_size=16),
    )
    return Pipeline(config)


def preprocess_without_reuse(pipeline, cloud, monkeypatch):
    """The same preprocess with the reuse plan forced off."""
    import repro.registration.pipeline as pipeline_mod

    with monkeypatch.context() as m:
        m.setattr(pipeline_mod, "_planned_reuse_radius", lambda config: None)
        return pipeline.preprocess(cloud, with_features=True)


class TestBitIdentity:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_all_backends_harris_fpfh(self, backend, lidar_pair, monkeypatch):
        source, _, _ = lidar_pair
        pipeline = reuse_pipeline(backend=backend)
        with_reuse = pipeline.preprocess(source, with_features=True)
        baseline = preprocess_without_reuse(pipeline, source, monkeypatch)
        assert np.array_equal(
            with_reuse.cloud.get_attribute("normals"),
            baseline.cloud.get_attribute("normals"),
        )
        assert np.array_equal(with_reuse.keypoints, baseline.keypoints)
        assert np.array_equal(with_reuse.descriptors, baseline.descriptors)

    @pytest.mark.parametrize(
        "keypoints, descriptor",
        [
            (
                KeypointConfig(
                    method="sift",
                    params={
                        "min_scale": 0.5,
                        "n_octaves": 2,
                        "scales_per_octave": 2,
                    },
                    min_keypoints=8,
                ),
                DescriptorConfig(method="shot", radius=1.0),
            ),
            (
                KeypointConfig(
                    method="uniform", params={"voxel_size": 3.0}, min_keypoints=8
                ),
                DescriptorConfig(method="3dsc", radius=1.0),
            ),
            (
                KeypointConfig(
                    method="harris", params={"radius": 0.8}, min_keypoints=8
                ),
                DescriptorConfig(method="3dsc", radius=1.2),
            ),
        ],
        ids=["sift-shot", "uniform-3dsc", "harris-3dsc"],
    )
    def test_stage_combinations(self, keypoints, descriptor, lidar_pair, monkeypatch):
        source, _, _ = lidar_pair
        pipeline = reuse_pipeline(keypoints=keypoints, descriptor=descriptor)
        with_reuse = pipeline.preprocess(source, with_features=True)
        baseline = preprocess_without_reuse(pipeline, source, monkeypatch)
        assert np.array_equal(
            with_reuse.cloud.get_attribute("normals"),
            baseline.cloud.get_attribute("normals"),
        )
        assert np.array_equal(with_reuse.keypoints, baseline.keypoints)
        assert np.array_equal(with_reuse.descriptors, baseline.descriptors)


class TestAccounting:
    def test_fill_and_serve_attribution(self, lidar_pair):
        """Exact backend: NE fills (fresh, inflated), later stages serve."""
        source, _, _ = lidar_pair
        state = reuse_pipeline().preprocess(source, with_features=True)
        n = len(state.cloud)

        ne = state.stats["Normal Estimation"]
        assert ne.queries == n
        assert ne.reused_queries == 0
        assert ne.cache_hits == 0
        assert ne.nodes_visited > 0

        kpd = state.stats["Key-point Detection"]
        assert kpd.queries == n  # Harris supports every point...
        assert kpd.reused_queries == n  # ...all served from the cache
        assert kpd.cache_hits == 1
        assert kpd.nodes_visited == 0

        desc = state.stats["Descriptor Calculation"]
        assert desc.queries > 0
        assert desc.reused_queries == desc.queries
        assert desc.cache_hits >= 1  # FPFH: keypoint + extra-SPFH passes
        assert desc.nodes_visited == 0

    def test_approximate_backend_fills_at_first_exact_stage(self, lidar_pair):
        """Approximate NE runs on a fresh stateful view the cache must
        not serve; the first exact full-cloud stage fills instead."""
        source, _, _ = lidar_pair
        state = reuse_pipeline(backend="approximate").preprocess(
            source, with_features=True
        )
        assert state.stats["Normal Estimation"].reused_queries == 0
        kpd = state.stats["Key-point Detection"]
        assert kpd.reused_queries == 0  # this stage executed the fill
        assert kpd.nodes_visited > 0
        desc = state.stats["Descriptor Calculation"]
        assert desc.reused_queries == desc.queries > 0
        assert desc.nodes_visited == 0

    def test_streaming_stats_balance(self, urban_sequence=None):
        """Streaming odometry with reuse active: per-pair counters stay
        internally consistent, and reuse actually engages."""
        from repro.io import make_sequence
        from repro.registration import run_odometry

        sequence = make_sequence(n_frames=3, seed=11, step=1.0)
        result = run_odometry(
            sequence, reuse_pipeline(), seed_with_previous=False
        )
        engaged = 0
        for pair in result.pair_results:
            for stage, stats in pair.stage_stats.items():
                assert 0 <= stats.reused_queries <= stats.queries, stage
                if stats.cache_hits == 0:
                    assert stats.reused_queries == 0, stage
                engaged += stats.reused_queries
        assert engaged > 0


class TestBypasses:
    def make_searcher(self, points, max_radius, injector=None, foreign=False):
        index, _ = build_index(points, SearchConfig(backend="twostage"))
        cache_index = (
            build_index(points, SearchConfig(backend="twostage"))[0]
            if foreign
            else exact_index(index)
        )
        stats = SearchStats()
        searcher = NeighborSearcher(
            index,
            stats,
            0.0,
            injector=injector,
            reuse=RadiusReuseCache(cache_index, max_radius),
        )
        return searcher, stats

    @pytest.fixture()
    def points(self):
        rng = np.random.default_rng(5)
        return rng.uniform(-4, 4, size=(300, 3))

    def test_served_results_bit_identical(self, points):
        searcher, _ = self.make_searcher(points, max_radius=1.5)
        rows = np.arange(len(points), dtype=np.int64)
        searcher.radius_batch(points, 1.5, self_indices=rows)  # fill
        fresh, _ = self.make_searcher(points, max_radius=0.0)
        subset = rows[::3]
        for r in (0.0, 0.4, 1.0, 1.5):
            for sort in (False, True):
                si, sd = searcher.radius_batch(
                    points[subset], r, sort=sort, self_indices=subset
                )
                fi, fd = fresh.radius_batch(points[subset], r, sort=sort)
                for a, b, c, d in zip(si, fi, sd, fd):
                    assert np.array_equal(a, b) and np.array_equal(c, d)

    def test_radius_beyond_plan_searches_fresh(self, points):
        searcher, stats = self.make_searcher(points, max_radius=1.0)
        rows = np.arange(len(points), dtype=np.int64)
        searcher.radius_batch(points, 1.0, self_indices=rows)  # fill
        searcher.radius_batch(points, 2.0, self_indices=rows)
        assert stats.reused_queries == 0
        assert stats.cache_hits == 0

    def test_subset_first_does_not_fill(self, points):
        searcher, stats = self.make_searcher(points, max_radius=1.0)
        subset = np.arange(0, len(points), 2, dtype=np.int64)
        searcher.radius_batch(points[subset], 0.5, self_indices=subset)
        assert not searcher._reuse.filled
        assert stats.reused_queries == 0
        # A full-cloud call later still fills and serves.
        rows = np.arange(len(points), dtype=np.int64)
        searcher.radius_batch(points, 0.5, self_indices=rows)
        assert searcher._reuse.filled
        searcher.radius_batch(points[subset], 0.5, self_indices=subset)
        assert stats.reused_queries == len(subset)

    def test_no_self_indices_searches_fresh(self, points):
        searcher, stats = self.make_searcher(points, max_radius=1.0)
        rows = np.arange(len(points), dtype=np.int64)
        searcher.radius_batch(points, 1.0, self_indices=rows)  # fill
        searcher.radius_batch(points, 0.5)
        assert stats.reused_queries == 0

    def test_injector_bypasses_cache(self, points):
        searcher, stats = self.make_searcher(
            points, max_radius=1.0, injector=IdentityInjector()
        )
        rows = np.arange(len(points), dtype=np.int64)
        searcher.radius_batch(points, 1.0, self_indices=rows)
        searcher.radius_batch(points, 0.5, self_indices=rows)
        assert stats.reused_queries == 0
        assert stats.cache_hits == 0

    def test_foreign_index_cache_is_dropped(self, points):
        searcher, stats = self.make_searcher(points, max_radius=1.0, foreign=True)
        assert searcher._reuse is None
        rows = np.arange(len(points), dtype=np.int64)
        searcher.radius_batch(points, 1.0, self_indices=rows)
        searcher.radius_batch(points, 0.5, self_indices=rows)
        assert stats.reused_queries == 0

    def test_cache_immutable_after_fill(self, points):
        searcher, _ = self.make_searcher(points, max_radius=1.0)
        rows = np.arange(len(points), dtype=np.int64)
        searcher.radius_batch(points, 1.0, self_indices=rows)
        cache = searcher._reuse
        before = cache._indices.copy(), cache._dists.copy()
        searcher.radius_batch(points, 0.7, self_indices=rows)
        searcher.radius_batch(points[rows[::5]], 0.2, self_indices=rows[::5])
        assert np.array_equal(cache._indices, before[0])
        assert np.array_equal(cache._dists, before[1])


class TestRadiusBoundary:
    """Served results equal fresh ones for a neighbor right at ``r``.

    The cache must filter on the squared distances the backend itself
    accepted.  Two-stage leaf scans sum ``(dx² + dz²) + dy²``; a
    recomputed ``(dx² + dy²) + dz²`` can land on the other side of
    ``r * r`` and silently drop (or add) a boundary neighbor.
    """

    @staticmethod
    def boundary_pair(r):
        """A and B = A + r * u where the two summation orders straddle r²."""
        rng = np.random.default_rng(0)
        for _ in range(500):
            a = rng.normal(size=3)
            u = rng.normal(size=3)
            d = r * (u / np.linalg.norm(u))
            b = a + d
            d = b - a
            leaf_sq = (d[0] * d[0] + d[2] * d[2]) + d[1] * d[1]
            plain_sq = (d[0] * d[0] + d[1] * d[1]) + d[2] * d[2]
            if leaf_sq <= r * r < plain_sq:
                return np.array([a, b])
        pytest.fail("no boundary pair found")

    @pytest.mark.parametrize("max_radius", [0.75, 1.5])
    def test_boundary_neighbor_is_served(self, max_radius):
        r = 0.75
        points = self.boundary_pair(r)
        tree = TwoStageKDTree(points, top_height=0)
        cache = RadiusReuseCache(tree, max_radius)
        cache.fill(SearchStats())
        fresh = tree.radius_batch_csr(points[:1], r)
        assert fresh.indices.tolist() == [0, 1]
        served = cache.serve_csr(np.array([0]), r)
        assert served.indices.tolist() == fresh.indices.tolist()
        assert np.array_equal(served.offsets, fresh.offsets)
        assert np.array_equal(served.distances, fresh.distances)

    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    def test_fill_keeps_backend_sq_distances(self, backend, rng):
        points = rng.uniform(-2, 2, size=(400, 3))
        index, _ = build_index(points, SearchConfig(backend=backend, leaf_size=16))
        cache = RadiusReuseCache(index, 0.9)
        cache.fill(SearchStats())
        fresh = index.radius_batch_csr(points, 0.9)
        assert np.array_equal(cache._sq_dists, fresh.sq_distances)
        assert np.array_equal(np.sqrt(cache._sq_dists), cache._dists)
        assert np.all(cache._sq_dists <= 0.9 * 0.9)


class TestStateLifecycle:
    def test_featured_state_drops_cache(self, lidar_pair):
        source, _, _ = lidar_pair
        pipeline = reuse_pipeline()
        bare = pipeline.preprocess(source, with_features=False)
        assert bare.reuse is not None
        featured = pipeline.ensure_features(bare)
        assert featured.reuse is None
        # The bare state keeps its (now filled) cache: a second
        # ensure_features reuses identically.
        assert bare.reuse is not None and bare.reuse.filled
        again = pipeline.ensure_features(bare)
        assert np.array_equal(featured.descriptors, again.descriptors)
        assert featured.stats == again.stats

    def test_skip_initial_estimation_plans_no_reuse(self, lidar_pair):
        source, _, _ = lidar_pair
        pipeline = reuse_pipeline()
        pipeline.config.skip_initial_estimation = True
        state = pipeline.preprocess(source)
        assert state.reuse is None
        assert state.stats["Normal Estimation"].reused_queries == 0
