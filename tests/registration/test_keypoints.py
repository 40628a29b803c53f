"""Unit tests for the keypoint detectors."""

import numpy as np
import pytest

from repro.io import PointCloud
from repro.registration import (
    KeypointConfig,
    NormalEstimationConfig,
    SearchConfig,
    build_searcher,
    detect_keypoints,
    estimate_normals,
)
from repro.registration.keypoints import (
    build_range_image,
    harris_keypoints,
    narf_keypoints,
    sift_keypoints,
    uniform_keypoints,
)
from repro.registration.keypoints import harris as harris_module


@pytest.fixture(scope="module")
def corner_cloud():
    """Two walls meeting the ground: corners and edges at known places."""
    rng = np.random.default_rng(0)
    n = 400
    parts = [
        np.column_stack(
            [rng.uniform(0, 6, n), rng.uniform(0, 6, n), np.zeros(n)]
        ),  # ground z=0
        np.column_stack(
            [rng.uniform(0, 6, n // 2), np.zeros(n // 2), rng.uniform(0, 3, n // 2)]
        ),  # wall y=0
        np.column_stack(
            [np.zeros(n // 2), rng.uniform(0, 6, n // 2), rng.uniform(0, 3, n // 2)]
        ),  # wall x=0
    ]
    cloud = PointCloud(np.vstack(parts))
    searcher = build_searcher(cloud.points, SearchConfig())
    cloud = estimate_normals(
        cloud, searcher, NormalEstimationConfig(radius=0.8, orient_towards=(3, 3, 5))
    )
    return cloud, searcher


class TestHarris:
    def test_finds_corner_region(self, corner_cloud):
        cloud, searcher = corner_cloud
        keypoints = harris_keypoints(cloud, searcher, radius=0.8, threshold=1e-4)
        assert len(keypoints) > 0
        # Keypoints concentrate near the corner line x=0, y=0.
        positions = cloud.points[keypoints]
        near_corner = np.sum(
            (np.abs(positions[:, 0]) < 1.2) & (np.abs(positions[:, 1]) < 1.2)
        )
        assert near_corner / len(keypoints) > 0.5

    def test_flat_plane_has_no_keypoints(self, rng):
        points = np.column_stack(
            [rng.uniform(0, 10, 300), rng.uniform(0, 10, 300), np.zeros(300)]
        )
        cloud = PointCloud(points)
        searcher = build_searcher(cloud.points, SearchConfig())
        cloud = estimate_normals(cloud, searcher, NormalEstimationConfig(radius=1.0))
        keypoints = harris_keypoints(cloud, searcher, radius=1.0, threshold=1e-4)
        assert len(keypoints) == 0

    def test_requires_normals(self, rng):
        cloud = PointCloud(rng.normal(size=(50, 3)))
        searcher = build_searcher(cloud.points, SearchConfig())
        with pytest.raises(ValueError, match="normals"):
            harris_keypoints(cloud, searcher)

    def test_nms_spreads_keypoints(self, corner_cloud):
        cloud, searcher = corner_cloud
        keypoints = harris_keypoints(
            cloud, searcher, radius=0.8, threshold=1e-5, non_max_radius=1.0
        )
        if len(keypoints) >= 2:
            positions = cloud.points[keypoints]
            diffs = positions[:, None, :] - positions[None, :, :]
            dists = np.linalg.norm(diffs, axis=2)
            np.fill_diagonal(dists, np.inf)
            assert dists.min() >= 1.0 - 1e-9

    def test_classic_response_option(self, corner_cloud):
        cloud, searcher = corner_cloud
        # The classic det - k trace^2 measure runs (may find nothing on
        # piecewise-planar data — that is exactly why eigen_product is
        # the default).
        keypoints = harris_keypoints(
            cloud, searcher, radius=0.8, threshold=-1.0, response="harris"
        )
        assert isinstance(keypoints, np.ndarray)

    @pytest.mark.parametrize("non_max_radius", [0.0, -1.0, -0.8])
    def test_rejects_non_positive_non_max_radius(self, corner_cloud, non_max_radius):
        cloud, searcher = corner_cloud
        with pytest.raises(ValueError, match="non_max_radius"):
            harris_keypoints(
                cloud, searcher, radius=0.8, non_max_radius=non_max_radius
            )

    def test_non_max_radius_defaults_to_radius(self, corner_cloud):
        cloud, searcher = corner_cloud
        default = harris_keypoints(cloud, searcher, radius=0.8, threshold=1e-5)
        explicit = harris_keypoints(
            cloud, searcher, radius=0.8, threshold=1e-5, non_max_radius=0.8
        )
        np.testing.assert_array_equal(default, explicit)

    def test_rejects_bad_response(self, corner_cloud):
        cloud, searcher = corner_cloud
        with pytest.raises(ValueError):
            harris_keypoints(cloud, searcher, response="bogus")


def list_non_max_suppress(points, response, candidates, radius):
    """The list loop the buffered NMS replaced: each candidate is tested
    against a fresh array of every point kept so far."""
    order = candidates[np.argsort(-response[candidates], kind="stable")]
    kept = []
    kept_points = []
    r_sq = radius * radius
    for idx in order:
        p = points[idx]
        if kept_points:
            diff = np.asarray(kept_points) - p
            if np.any(np.einsum("ij,ij->i", diff, diff) < r_sq):
                continue
        kept.append(int(idx))
        kept_points.append(p)
    return np.array(sorted(kept), dtype=np.int64)


class TestNonMaxSuppress:
    """Harris's greedy NMS against the list loop it replaced."""

    def assert_matches_loop(self, points, response, candidates, radius):
        got = harris_module._non_max_suppress(points, response, candidates, radius)
        want = list_non_max_suppress(points, response, candidates, radius)
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        return got

    def test_random_clouds_with_tied_responses(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 300))
            points = rng.uniform(0, 8, size=(n, 3))
            # Quantized responses: many exact ties, which the stable
            # order breaks by candidate position.
            response = rng.integers(0, 5, n).astype(np.float64)
            candidates = np.flatnonzero(rng.random(n) < 0.7)
            if len(candidates):
                self.assert_matches_loop(
                    points, response, candidates, float(rng.uniform(0.3, 2.0))
                )

    def test_duplicate_points_keep_the_first_strongest(self):
        points = np.array([[1.0, 2.0, 3.0]] * 3 + [[5.0, 5.0, 5.0]])
        response = np.array([0.5, 0.9, 0.9, 0.1])
        kept = self.assert_matches_loop(points, response, np.arange(4), 1.0)
        np.testing.assert_array_equal(kept, [1, 3])

    def test_neighbour_at_exactly_the_radius_survives(self):
        """Suppression is strict: dyadic coordinates put points 1 and 3
        at squared distance exactly ``radius**2`` from point 0."""
        points = np.array(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, -1.0]]
        )
        response = np.array([4.0, 3.0, 2.0, 1.0])
        kept = self.assert_matches_loop(points, response, np.arange(4), 1.0)
        np.testing.assert_array_equal(kept, [0, 1, 3])

    def test_distance_in_einsum_lane_order(self):
        """A neighbour whose squared distance is below ``radius**2`` in
        the order ``(dx² + dz²) + dy²`` but not in ``(dx² + dy²) + dz²``
        (or the other way round) is decided by the lane order."""
        rng = np.random.default_rng(11)
        found = 0
        while found < 20:
            d = rng.normal(size=3) * 10 ** rng.uniform(-1, 1, 3)
            lanes = (d[0] * d[0] + d[2] * d[2]) + d[1] * d[1]
            left = (d[0] * d[0] + d[1] * d[1]) + d[2] * d[2]
            radius = np.sqrt(max(lanes, left))
            if lanes == left or not min(lanes, left) < radius * radius <= max(lanes, left):
                continue
            found += 1
            points = np.array([[0.5, -1.0, 2.0], [0.5, -1.0, 2.0] + d])
            # Coordinates are not dyadic, so recompute d as the kernel sees it.
            d = points[1] - points[0]
            lanes = (d[0] * d[0] + d[2] * d[2]) + d[1] * d[1]
            kept = self.assert_matches_loop(
                points, np.array([2.0, 1.0]), np.arange(2), radius
            )
            assert len(kept) == (1 if lanes < radius * radius else 2)

    def test_urban_frame_candidates(self):
        """Candidates and scores of a real LiDAR frame, with the
        responses quantized so that many tie."""
        from repro.io import SceneSuite

        frame = SceneSuite.default(n_frames=2, scenes=("urban",)).sequence("urban").frames[0]
        searcher = build_searcher(frame.points, SearchConfig())
        cloud = estimate_normals(frame, searcher, NormalEstimationConfig(radius=0.75))
        calls = []
        original = harris_module._non_max_suppress

        def recording(*args):
            calls.append(args)
            return original(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harris_module, "_non_max_suppress", recording)
            harris_keypoints(cloud, searcher, radius=1.0)
        (points, response, candidates, radius), = calls
        assert len(candidates) > 50
        self.assert_matches_loop(points, response, candidates, radius)
        tied = np.round(response * 1e3) / 1e3
        self.assert_matches_loop(points, tied, candidates, radius)
        self.assert_matches_loop(points, tied, candidates, 2.5 * radius)

    def test_harris_candidates_match_loop(self, corner_cloud, monkeypatch):
        calls = []
        buffered = harris_module._non_max_suppress

        def recording(*args):
            calls.append(args)
            return buffered(*args)

        monkeypatch.setattr(harris_module, "_non_max_suppress", recording)
        cloud, searcher = corner_cloud
        harris_keypoints(
            cloud, searcher, radius=0.8, threshold=1e-5, non_max_radius=1.0
        )
        monkeypatch.undo()
        assert calls and len(calls[0][2]) > 10
        for args in calls:
            self.assert_matches_loop(*args)


class TestSift:
    def test_finds_keypoints_on_curvature_blobs(self, corner_cloud):
        cloud, searcher = corner_cloud
        keypoints = sift_keypoints(
            cloud, searcher, min_scale=0.4, n_octaves=2, scales_per_octave=2,
            contrast_threshold=1e-6,
        )
        assert len(keypoints) >= 0  # shape check; count depends on geometry
        assert keypoints.dtype == np.int64

    def test_requires_curvature(self, rng):
        cloud = PointCloud(rng.normal(size=(30, 3)))
        searcher = build_searcher(cloud.points, SearchConfig())
        with pytest.raises(ValueError, match="curvature"):
            sift_keypoints(cloud, searcher)

    def test_validation(self, corner_cloud):
        cloud, searcher = corner_cloud
        with pytest.raises(ValueError):
            sift_keypoints(cloud, searcher, min_scale=0.0)
        with pytest.raises(ValueError):
            sift_keypoints(cloud, searcher, n_octaves=0)


class TestNarf:
    def test_runs_on_lidar_frame(self, lidar_pair):
        source, _, _ = lidar_pair
        keypoints = narf_keypoints(source, support_size=2.0)
        assert len(keypoints) > 0
        assert len(set(keypoints.tolist())) == len(keypoints)

    def test_max_keypoints_cap(self, lidar_pair):
        source, _, _ = lidar_pair
        keypoints = narf_keypoints(source, support_size=2.0, max_keypoints=5)
        assert len(keypoints) <= 5

    def test_validation(self, lidar_pair):
        source, _, _ = lidar_pair
        with pytest.raises(ValueError):
            narf_keypoints(source, support_size=0.0)

    def test_range_image_from_lidar_channels(self, lidar_pair):
        source, _, _ = lidar_pair
        image = build_range_image(source)
        valid = image.valid_mask()
        assert valid.sum() > 0
        # Every valid pixel points back at a real point with that range.
        rows, cols = np.nonzero(valid)
        for r, c in list(zip(rows, cols))[:50]:
            idx = image.point_index[r, c]
            assert idx >= 0
            point_range = np.linalg.norm(source.points[idx])
            assert point_range == pytest.approx(image.ranges[r, c], abs=1e-6)

    def test_range_image_fallback_projection(self, rng):
        cloud = PointCloud(rng.normal(size=(200, 3)) + [5, 0, 0])
        image = build_range_image(cloud, rows=16, cols=60)
        assert image.shape == (16, 60)
        assert image.valid_mask().sum() > 0


class TestUniform:
    def test_one_per_voxel(self, rng):
        cloud = PointCloud(rng.uniform(0, 10, size=(500, 3)))
        keypoints = uniform_keypoints(cloud, voxel_size=2.5)
        assert 0 < len(keypoints) <= 5 * 5 * 5

    def test_rejects_nonpositive_voxel(self, rng):
        with pytest.raises(ValueError):
            uniform_keypoints(PointCloud(rng.normal(size=(5, 3))), voxel_size=0)


class TestDispatcher:
    def test_all_methods_dispatch(self, corner_cloud):
        cloud, searcher = corner_cloud
        for method, params in (
            ("harris", {"radius": 0.8}),
            ("uniform", {"voxel_size": 2.0}),
        ):
            config = KeypointConfig(method=method, params=params)
            keypoints = detect_keypoints(cloud, searcher, config)
            assert len(keypoints) >= config.min_keypoints

    def test_min_keypoints_topup(self, corner_cloud):
        cloud, searcher = corner_cloud
        config = KeypointConfig(
            method="harris",
            params={"radius": 0.8, "threshold": 1e9},  # finds nothing
            min_keypoints=12,
        )
        keypoints = detect_keypoints(cloud, searcher, config)
        assert len(keypoints) == 12

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            KeypointConfig(method="bogus")
