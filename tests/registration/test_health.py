"""Registration health: gates, observability analysis, degeneracy flags."""

import numpy as np
import pytest

from repro.io import SceneSuite, make_sequence
from repro.registration import (
    HealthConfig,
    ICPConfig,
    KeypointConfig,
    Pipeline,
    PipelineConfig,
    RPCEConfig,
    SearchConfig,
    assess_registration,
    translation_observability,
)
from repro.registration import pipeline as pipeline_module

from .search_cases import search_cases


def health_pipeline(
    backend: str = "twostage", leaf_size: int = SearchConfig.leaf_size
) -> Pipeline:
    """Point-to-plane matcher (health needs normals for observability)."""
    return Pipeline(
        PipelineConfig(
            keypoints=KeypointConfig(
                method="uniform", params={"voxel_size": 3.0}, min_keypoints=8
            ),
            icp=ICPConfig(
                rpce=RPCEConfig(max_distance=2.0),
                error_metric="point_to_plane",
                max_iterations=6,
            ),
            search=SearchConfig(backend=backend, leaf_size=leaf_size),
        )
    )


@pytest.fixture(scope="module")
def good_result():
    """A genuine, well-aligned registration to threshold against."""
    sequence = make_sequence(n_frames=2, seed=7)
    source, target, relative = sequence.pair(0)
    return health_pipeline().register(source, target, initial=relative)


class TestVerdict:
    def test_good_pair_healthy_by_default(self, good_result):
        health = assess_registration(good_result)
        assert health.healthy
        assert health.reasons == ()
        assert not health.degenerate

    def test_signals_recorded(self, good_result):
        health = assess_registration(good_result)
        assert health.rmse == pytest.approx(good_result.icp.rmse)
        assert health.median_residual == pytest.approx(
            float(np.median(good_result.icp.matched_residuals))
        )
        # The median ignores the far-match tail, so it sits below the
        # RMS of the same residual vector.
        assert health.median_residual < health.rmse
        assert health.eigenvalue_ratio is not None
        assert health.condition_number is not None
        assert health.translation > 0.0

    def test_rmse_gate(self, good_result):
        health = assess_registration(
            good_result, HealthConfig(max_rmse=1e-9)
        )
        assert not health.healthy
        assert "rmse" in health.reasons

    def test_median_residual_gate(self, good_result):
        health = assess_registration(
            good_result, HealthConfig(max_median_residual=1e-9)
        )
        assert not health.healthy
        assert "median_residual" in health.reasons
        loose = assess_registration(
            good_result,
            HealthConfig(max_median_residual=good_result.icp.rmse),
        )
        assert "median_residual" not in loose.reasons

    def test_motion_bounds(self, good_result):
        health = assess_registration(
            good_result, HealthConfig(max_translation=1e-6)
        )
        assert "translation_bound" in health.reasons

    def test_prior_tolerances(self, good_result):
        # The solved motion is ~1 m; an identity prior violates a tight
        # translation tolerance.
        health = assess_registration(
            good_result,
            HealthConfig(prior_translation_tolerance=0.1),
            prior=np.eye(4),
        )
        assert "prior_translation" in health.reasons
        assert health.prior_translation_deviation == pytest.approx(
            health.translation, rel=1e-6
        )
        # The solved transform itself as prior: zero deviation, healthy.
        agree = assess_registration(
            good_result,
            HealthConfig(
                prior_translation_tolerance=0.1,
                prior_rotation_tolerance_deg=1.0,
            ),
            prior=good_result.transformation,
        )
        assert agree.healthy

    def test_disabled_gates_do_not_fire(self, good_result):
        config = HealthConfig(
            max_rmse=None,
            max_median_residual=None,
            min_inlier_ratio=None,
            max_translation=None,
            max_rotation_deg=None,
            min_eigenvalue_ratio=None,
        )
        assert assess_registration(good_result, config).healthy

    def test_inlier_ratio_gate_without_ransac_model(self, monkeypatch):
        """A pair left with fewer than 3 matches has no RANSAC model, so
        it keeps no inliers and the inlier-ratio gate fires (it would
        see a ratio of 1.0 if rejection passed the matches through)."""
        estimate = pipeline_module.estimate_feature_correspondences

        def two_matches(*args, **kwargs):
            return estimate(*args, **kwargs).select(np.arange(2))

        monkeypatch.setattr(
            pipeline_module, "estimate_feature_correspondences", two_matches
        )
        source, target, _ = make_sequence(n_frames=2, seed=7).pair(0)
        result = health_pipeline().register(source, target)
        assert result.n_feature_correspondences == 2
        assert result.n_inlier_correspondences == 0
        health = assess_registration(result)
        assert health.inlier_ratio == 0.0
        assert "inlier_ratio" in health.reasons


class TestTranslationObservability:
    @staticmethod
    def hessian_from_normals(normals: np.ndarray) -> np.ndarray:
        hessian = np.zeros((6, 6))
        hessian[3:6, 3:6] = normals.T @ normals
        return hessian

    @staticmethod
    def corridor_normals(rng, n: int = 200) -> np.ndarray:
        """Normals of two walls (+-y) and a floor (+z): no x aperture."""
        walls = np.tile([0.0, 1.0, 0.0], (n, 1))
        walls[: n // 2, 1] = -1.0
        floor = np.tile([0.0, 0.0, 1.0], (n // 2, 1))
        return np.vstack([walls, floor])

    def test_none_hessian(self):
        assert translation_observability(None) == (None, None)

    def test_full_rank_aperture(self, rng):
        normals = rng.normal(size=(300, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        ratio, condition = translation_observability(
            self.hessian_from_normals(normals), normals=normals
        )
        assert ratio > 0.1
        assert condition < 10.0

    def test_corridor_rank_deficiency(self, rng):
        normals = self.corridor_normals(rng)
        ratio, condition = translation_observability(
            self.hessian_from_normals(normals)
        )
        assert ratio == pytest.approx(0.0, abs=1e-12)
        assert condition == np.inf

    def test_trimming_removes_junk_support(self, rng):
        # A few percent of junk normals (arbitrary orientation, the
        # signature of collinear single-ring neighborhoods) props the
        # null direction up to apparent observability; the trimmed
        # statistic must see through them.
        normals = self.corridor_normals(rng, n=200)
        junk = rng.normal(size=(9, 3))  # 3% of 300
        junk /= np.linalg.norm(junk, axis=1, keepdims=True)
        contaminated = np.vstack([normals, junk])
        hessian = self.hessian_from_normals(contaminated)
        untrimmed, _ = translation_observability(hessian)
        trimmed, _ = translation_observability(
            hessian, normals=contaminated
        )
        assert untrimmed > 1e-3  # junk fakes an aperture
        assert trimmed < 1e-6  # the trim collapses it
        assert trimmed < untrimmed / 100.0

    def test_trimming_keeps_genuine_aperture(self, rng):
        normals = rng.normal(size=(300, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        hessian = self.hessian_from_normals(normals)
        untrimmed, _ = translation_observability(hessian)
        trimmed, _ = translation_observability(hessian, normals=normals)
        # Broad support survives a 5% trim: same order of magnitude.
        assert trimmed > untrimmed / 3.0


class TestCorridorDegeneracyAcrossBackends:
    """The corridor flags ``degenerate`` under every search backend, and
    on the two-stage tree at both ends of the leaf-size sweep.

    Degeneracy is a property of the scene geometry seen through the
    matched correspondence set; swapping the neighbor-search backend
    changes which correspondences are found, so each backend must be
    shown to surface the same near-null translation direction.  The
    gate here is the condition number: the approximate backend's
    deliberately-wrong neighbors add broad junk support that props the
    smallest eigenvalue slightly above the tight default ratio gate,
    but the translation block stays conditioned orders of magnitude
    worse than any observable scene under every backend (5e3-2e4 here
    vs ~1e2 for the urban pair).
    """

    CONFIG = HealthConfig(max_condition_number=1e3)

    @pytest.fixture(scope="class")
    def corridor_pair(self):
        suite = SceneSuite.adverse(n_frames=2)
        sequence = suite.sequence("corridor")
        return sequence.frames[1], sequence.frames[0]

    @pytest.mark.parametrize("backend,leaf_size", search_cases())
    def test_flagged_degenerate(self, corridor_pair, backend, leaf_size):
        source, target = corridor_pair
        result = health_pipeline(backend, leaf_size).register(
            source, target, initial=np.eye(4)
        )
        health = assess_registration(result, self.CONFIG)
        assert health.degenerate
        assert "degenerate" in health.reasons
        assert health.eigenvalue_ratio < 1e-3
        assert health.condition_number > 1e3

    def test_exact_backends_flag_at_default_ratio(self, corridor_pair):
        source, target = corridor_pair
        result = health_pipeline("twostage").register(
            source, target, initial=np.eye(4)
        )
        health = assess_registration(result)
        assert health.degenerate
        assert health.eigenvalue_ratio < 1e-4

    def test_urban_not_degenerate_same_config(self):
        sequence = make_sequence(n_frames=2, seed=7)
        source, target, relative = sequence.pair(0)
        result = health_pipeline().register(source, target, initial=relative)
        health = assess_registration(result, self.CONFIG)
        assert not health.degenerate
        assert health.eigenvalue_ratio > 1e-3
        assert health.condition_number < 1e3
