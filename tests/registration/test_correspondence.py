"""Unit tests for KPCE (feature-space) and RPCE (3D) correspondence."""

import numpy as np
import pytest

from repro.geometry import se3
from repro.registration import (
    Correspondences,
    KPCEConfig,
    RPCEConfig,
    SearchConfig,
    build_searcher,
    estimate_feature_correspondences,
    estimate_point_correspondences,
)


class TestCorrespondencesContainer:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            Correspondences(
                np.array([0, 1]), np.array([0]), np.array([0.1, 0.2])
            )

    def test_select_by_mask(self):
        corr = Correspondences(
            np.array([0, 1, 2]),
            np.array([5, 6, 7]),
            np.array([0.1, 0.2, 0.3]),
            np.array([0.2, 0.4, 0.6]),
        )
        subset = corr.select(np.array([True, False, True]))
        assert len(subset) == 2
        assert list(subset.target_indices) == [5, 7]
        assert list(subset.second_distances) == [0.2, 0.6]


class TestKPCE:
    def test_identical_features_match_identity(self, rng):
        features = rng.normal(size=(20, 33))
        corr = estimate_feature_correspondences(
            features, features, KPCEConfig(reciprocal=False)
        )
        assert np.array_equal(corr.source_indices, np.arange(20))
        assert np.array_equal(corr.target_indices, np.arange(20))
        assert np.allclose(corr.distances, 0.0)

    def test_permuted_features_recovered(self, rng):
        features = rng.normal(size=(15, 8))
        perm = rng.permutation(15)
        corr = estimate_feature_correspondences(
            features, features[perm], KPCEConfig(reciprocal=False)
        )
        # target row j holds source feature perm[j]; match must invert it.
        for s, t in zip(corr.source_indices, corr.target_indices):
            assert perm[t] == s

    def test_reciprocal_filters_asymmetric(self, rng):
        source = np.array([[0.0], [10.0]])
        # Target has a cluster near 0: 0 -> nearest target, but that
        # target's nearest source is still 0; 10 -> far target.
        target = np.array([[0.1], [0.2], [50.0]])
        corr = estimate_feature_correspondences(
            source, target, KPCEConfig(reciprocal=True)
        )
        assert len(corr) <= 2
        assert 0 in corr.source_indices

    def test_with_second_distances(self, rng):
        features = rng.normal(size=(10, 5))
        corr = estimate_feature_correspondences(
            features,
            features,
            KPCEConfig(reciprocal=False, with_second=True),
        )
        assert corr.second_distances is not None
        assert np.all(corr.second_distances >= corr.distances)

    def test_bruteforce_backend_agrees_with_kdtree(self, rng):
        source = rng.normal(size=(12, 16))
        target = rng.normal(size=(18, 16))
        kd = estimate_feature_correspondences(
            source, target, KPCEConfig(reciprocal=False, backend="canonical")
        )
        bf = estimate_feature_correspondences(
            source, target, KPCEConfig(reciprocal=False, backend="bruteforce")
        )
        assert np.array_equal(kd.target_indices, bf.target_indices)

    def test_empty_inputs(self):
        corr = estimate_feature_correspondences(
            np.empty((0, 4)), np.empty((0, 4))
        )
        assert len(corr) == 0

    def test_backend_validation(self):
        with pytest.raises(ValueError):
            KPCEConfig(backend="gpu")


@pytest.fixture
def target_setup(rng):
    points = rng.normal(size=(200, 3)) * 4.0
    searcher = build_searcher(points, SearchConfig())
    return points, searcher


class TestRPCENearest:
    def test_matches_are_nearest(self, target_setup, rng):
        target_points, searcher = target_setup
        source = rng.normal(size=(30, 3)) * 4.0
        corr = estimate_point_correspondences(source, searcher, RPCEConfig())
        for s, t, d in zip(corr.source_indices, corr.target_indices, corr.distances):
            dists = np.linalg.norm(target_points - source[s], axis=1)
            assert d == pytest.approx(dists.min(), abs=1e-9)
            assert dists[t] == pytest.approx(dists.min(), abs=1e-9)

    def test_max_distance_gates(self, target_setup):
        target_points, searcher = target_setup
        source = np.array([[100.0, 100.0, 100.0], [0.0, 0.0, 0.0]])
        corr = estimate_point_correspondences(
            source, searcher, RPCEConfig(max_distance=5.0)
        )
        assert 0 not in corr.source_indices
        assert 1 in corr.source_indices

    def test_empty_source(self, target_setup):
        _, searcher = target_setup
        corr = estimate_point_correspondences(np.empty((0, 3)), searcher)
        assert len(corr) == 0

    def test_reciprocal_mode(self, target_setup, rng):
        target_points, searcher = target_setup
        source = target_points[:40] + rng.normal(scale=0.01, size=(40, 3))
        source_searcher = build_searcher(source, SearchConfig())
        corr = estimate_point_correspondences(
            source,
            searcher,
            RPCEConfig(reciprocal=True),
            source_searcher=source_searcher,
        )
        # Jittered subsets are mutually nearest: nearly all pairs survive.
        assert len(corr) > 30


class TestRPCENormalShooting:
    def test_prefers_point_along_normal(self, rng):
        # Target: two points — one straight along the source normal but
        # slightly farther, one nearer but off-axis.
        target = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.0]])
        searcher = build_searcher(target, SearchConfig())
        source = np.array([[0.0, 0.0, 0.0]])
        normals = np.array([[0.0, 0.0, 1.0]])
        corr = estimate_point_correspondences(
            source,
            searcher,
            RPCEConfig(method="normal_shooting", k_candidates=2),
            source_normals=normals,
        )
        assert corr.target_indices[0] == 0

    def test_requires_normals(self, target_setup, rng):
        _, searcher = target_setup
        with pytest.raises(ValueError, match="normals"):
            estimate_point_correspondences(
                rng.normal(size=(5, 3)),
                searcher,
                RPCEConfig(method="normal_shooting"),
            )


class TestRPCEProjection:
    def test_projection_on_lidar_frame(self, lidar_pair):
        source, target, gt = lidar_pair
        searcher = build_searcher(target.points, SearchConfig())
        moved = se3.apply_transform(gt, source.points[:300])
        corr = estimate_point_correspondences(
            moved,
            searcher,
            RPCEConfig(method="projection", max_distance=2.0),
            target_cloud=target,
        )
        assert len(corr) > 100
        # Projected matches must be within the gate by construction.
        assert np.all(corr.distances <= 2.0)

    def test_requires_image_or_cloud(self, target_setup, rng):
        _, searcher = target_setup
        with pytest.raises(ValueError, match="projection requires"):
            estimate_point_correspondences(
                rng.normal(size=(5, 3)),
                searcher,
                RPCEConfig(method="projection"),
            )


class TestRPCEValidation:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            RPCEConfig(method="bogus")
        with pytest.raises(ValueError):
            RPCEConfig(max_distance=0.0)
        with pytest.raises(ValueError):
            RPCEConfig(k_candidates=0)
