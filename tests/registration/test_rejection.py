"""Unit tests for correspondence rejection (threshold, ratio, RANSAC)."""

import numpy as np
import pytest

from repro.geometry import se3
from repro.registration import (
    Correspondences,
    RejectionConfig,
    reject_correspondences,
    reject_ransac,
)
from repro.registration.rejection import (
    reject_distance,
    reject_one_to_one,
    reject_ratio,
)


def make_matched_scene(rng, n=40, outlier_fraction=0.25):
    """Source points, a GT transform, and correspondences with outliers."""
    source = rng.normal(size=(n, 3)) * 5.0
    gt = se3.make_transform(
        se3.axis_angle_to_rotation([0.1, 0.9, -0.3], 0.3), [1.0, -0.5, 0.25]
    )
    target = se3.apply_transform(gt, source)
    n_outliers = int(outlier_fraction * n)
    outlier_rows = rng.choice(n, size=n_outliers, replace=False)
    target_indices = np.arange(n)
    # Corrupt some matches by pairing with a rotated-away wrong point.
    target = target.copy()
    target[outlier_rows] += rng.normal(scale=8.0, size=(n_outliers, 3))
    corr = Correspondences(
        np.arange(n), target_indices, np.zeros(n)
    )
    return source, target, corr, gt, set(outlier_rows.tolist())


class TestSimpleRejectors:
    def test_distance_threshold(self):
        corr = Correspondences(
            np.arange(4), np.arange(4), np.array([0.1, 0.9, 0.4, 2.0])
        )
        kept = reject_distance(corr, 0.5)
        assert list(kept.source_indices) == [0, 2]

    def test_ratio_requires_seconds(self):
        corr = Correspondences(np.arange(2), np.arange(2), np.zeros(2))
        with pytest.raises(ValueError):
            reject_ratio(corr, 0.8)

    def test_ratio_keeps_distinctive(self):
        corr = Correspondences(
            np.arange(3),
            np.arange(3),
            np.array([0.1, 0.5, 0.2]),
            np.array([0.5, 0.55, 1.0]),  # ratios: 0.2, 0.91, 0.2
        )
        kept = reject_ratio(corr, 0.8)
        assert list(kept.source_indices) == [0, 2]

    def test_one_to_one_keeps_closest(self):
        corr = Correspondences(
            np.array([0, 1, 2]),
            np.array([7, 7, 8]),  # 0 and 1 both claim target 7
            np.array([0.5, 0.1, 0.3]),
        )
        kept = reject_one_to_one(corr)
        assert len(kept) == 2
        assert 1 in kept.source_indices  # the closer claimant wins
        assert 0 not in kept.source_indices

    def test_one_to_one_empty(self):
        empty = Correspondences(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
        )
        assert len(reject_one_to_one(empty)) == 0


class TestRansac:
    def test_recovers_transform_with_outliers(self, rng):
        source, target, corr, gt, outliers = make_matched_scene(rng)
        result = reject_ransac(corr, source, target, threshold=0.3, iterations=300)
        rot, trans = se3.transform_distance(gt, result.transformation)
        assert rot < 1e-6
        assert trans < 1e-6

    def test_outliers_removed(self, rng):
        source, target, corr, gt, outliers = make_matched_scene(rng)
        result = reject_ransac(corr, source, target, threshold=0.3, iterations=300)
        surviving = set(result.correspondences.source_indices.tolist())
        assert not (surviving & outliers)
        assert len(surviving) == len(corr) - len(outliers)

    def test_inlier_ratio_reported(self, rng):
        source, target, corr, gt, outliers = make_matched_scene(
            rng, outlier_fraction=0.25
        )
        result = reject_ransac(corr, source, target, threshold=0.3, iterations=300)
        assert result.inlier_ratio == pytest.approx(0.75, abs=0.05)

    def test_too_few_pairs_returns_identity(self, rng):
        """Fewer than 3 pairs admit no model, so none is an inlier."""
        for n in (0, 1, 2):
            corr = Correspondences(np.arange(n), np.arange(n), np.zeros(n))
            result = reject_ransac(
                corr, rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
            )
            assert np.array_equal(result.transformation, np.eye(4))
            assert len(result.correspondences) == 0
            assert result.inlier_ratio == 0.0

    def test_deterministic_for_seed(self, rng):
        source, target, corr, _, _ = make_matched_scene(rng)
        a = reject_ransac(corr, source, target, seed=5)
        b = reject_ransac(corr, source, target, seed=5)
        assert np.array_equal(a.transformation, b.transformation)


class TestCascade:
    def test_ransac_cascade(self, rng):
        source, target, corr, gt, _ = make_matched_scene(rng)
        config = RejectionConfig(
            method="ransac", ransac_threshold=0.3, ransac_iterations=300
        )
        result = reject_correspondences(corr, source, target, config)
        rot, trans = se3.transform_distance(gt, result.transformation)
        assert trans < 1e-6

    def test_threshold_cascade_fits_kabsch(self, rng):
        source, target, corr, gt, _ = make_matched_scene(
            rng, outlier_fraction=0.0
        )
        config = RejectionConfig(method="threshold")
        result = reject_correspondences(corr, source, target, config)
        rot, trans = se3.transform_distance(gt, result.transformation)
        assert trans < 1e-6

    def test_distance_threshold_applied_first(self, rng):
        source, target, corr, _, _ = make_matched_scene(rng, outlier_fraction=0.0)
        corr.distances[:] = 1.0
        corr.distances[3] = 10.0
        config = RejectionConfig(method="threshold", distance_threshold=5.0)
        result = reject_correspondences(corr, source, target, config)
        assert 3 not in result.correspondences.source_indices

    def test_degenerate_input_graceful(self, rng):
        empty = Correspondences(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
        )
        result = reject_correspondences(
            empty, rng.normal(size=(5, 3)), rng.normal(size=(5, 3)),
            RejectionConfig(method="threshold"),
        )
        assert np.array_equal(result.transformation, np.eye(4))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RejectionConfig(method="bogus")
        with pytest.raises(ValueError):
            RejectionConfig(ransac_threshold=0.0)
        with pytest.raises(ValueError):
            RejectionConfig(ransac_iterations=0)
