"""Stacked RANSAC scoring against the per-hypothesis loop it replaced.

``reject_ransac`` draws every 3-pair sample up front and fits and
scores the hypotheses in stacked chunks (``rejection._score_hypotheses``).
The oracle is the scalar loop: per hypothesis one collinearity test,
one :func:`~repro.registration.estimation.kabsch` fit and one residual
pass, keeping the first best count.  Every comparison is exact
(``array_equal``): the stacked BLAS/LAPACK calls must reproduce the
per-matrix results bit for bit, so no tolerance is accepted.
"""

import numpy as np
import pytest

from repro.geometry import se3
from repro.registration import (
    DESIGN_POINT_NAMES,
    Correspondences,
    Pipeline,
    design_point,
    reject_correspondences,
    reject_ransac,
)
from repro.registration import pipeline as pipeline_module
from repro.registration import rejection
from repro.registration.rejection import RansacResult
from repro.registration.estimation import kabsch

COLLINEAR_TOL = 1e-6


def scalar_hypothesis(src, tgt, sample, threshold):
    """One hypothesis of the scalar loop: ``None`` when the sample is
    (nearly) collinear, else its ``(model, inliers)``."""
    points = src[sample]
    v1 = points[1] - points[0]
    v2 = points[2] - points[0]
    if float(np.linalg.norm(np.cross(v1, v2))) < COLLINEAR_TOL:
        return None
    model = kabsch(src[sample], tgt[sample])
    residuals = np.linalg.norm(se3.apply_transform(model, src) - tgt, axis=1)
    return model, residuals < threshold


def scalar_ransac(
    correspondences, source_points, target_points, threshold=0.5, iterations=200, seed=0
):
    """``reject_ransac`` as one scalar fit and score per hypothesis."""
    n = len(correspondences)
    if n < 3:
        return RansacResult(
            correspondences.select(np.zeros(n, dtype=bool)), np.eye(4), 0.0
        )
    rng = np.random.default_rng(seed)
    src = np.asarray(source_points, dtype=np.float64)[correspondences.source_indices]
    tgt = np.asarray(target_points, dtype=np.float64)[correspondences.target_indices]

    best_inliers = None
    best_count = -1
    for _ in range(iterations):
        sample = rng.choice(n, size=3, replace=False)
        hypothesis = scalar_hypothesis(src, tgt, sample, threshold)
        if hypothesis is None:
            continue
        inliers = hypothesis[1]
        count = int(inliers.sum())
        if count > best_count:
            best_count = count
            best_inliers = inliers

    if best_inliers is None or best_count < 3:
        return RansacResult(
            correspondences.select(np.zeros(n, dtype=bool)), np.eye(4), 0.0
        )
    transformation = kabsch(src[best_inliers], tgt[best_inliers])
    residuals = np.linalg.norm(se3.apply_transform(transformation, src) - tgt, axis=1)
    final_inliers = residuals < threshold
    if final_inliers.sum() >= 3:
        transformation = kabsch(src[final_inliers], tgt[final_inliers])
    else:
        final_inliers = best_inliers
    return RansacResult(
        correspondences.select(final_inliers),
        transformation,
        float(final_inliers.sum()) / n,
    )


def draw_samples(n, iterations, seed):
    """The samples ``reject_ransac`` draws, in order."""
    rng = np.random.default_rng(seed)
    return np.array(
        [rng.choice(n, size=3, replace=False) for _ in range(iterations)],
        dtype=np.int64,
    ).reshape(-1, 3)


def assert_hypotheses_match(src, tgt, samples, threshold):
    """Per hypothesis: the degenerate flag, the 4x4 model and the
    inlier mask of the stacked form equal the scalar loop's."""
    valid, models, inliers = rejection._score_hypotheses(src, tgt, samples, threshold)
    expected = [scalar_hypothesis(src, tgt, sample, threshold) for sample in samples]
    assert np.array_equal(valid, [e is not None for e in expected])
    fitted = [e for e in expected if e is not None]
    assert len(models) == len(inliers) == len(fitted)
    for model, mask, (expected_model, expected_mask) in zip(models, inliers, fitted):
        assert np.array_equal(model, expected_model)
        assert np.array_equal(mask, expected_mask)
    return valid


def assert_same_result(result, expected):
    assert np.array_equal(result.transformation, expected.transformation)
    assert result.inlier_ratio == expected.inlier_ratio
    kept, want = result.correspondences, expected.correspondences
    assert np.array_equal(kept.source_indices, want.source_indices)
    assert np.array_equal(kept.target_indices, want.target_indices)
    assert np.array_equal(kept.distances, want.distances)


def identity_correspondences(n):
    return Correspondences(np.arange(n), np.arange(n), np.zeros(n))


def scene(kind, m=60, seed=0):
    """Source/target points of ``m`` pairs (about a third outliers) and
    an inlier threshold, shaped to stress one part of the fit."""
    rng = np.random.default_rng(seed)
    scale = {"small": 1e-4, "large": 1e5}.get(kind, 1.0)
    src = rng.normal(size=(m, 3)) * 5.0
    if kind == "collinear":
        src = np.outer(rng.normal(size=m), [1.0, -2.0, 0.5])
    elif kind == "half_collinear":
        src[: m // 2] = np.outer(rng.normal(size=m // 2), [0.3, 0.1, -1.0])
    elif kind == "duplicate":
        src[rng.random(m) < 0.6] = src[0]
    elif kind == "coplanar":
        src[:, 2] = 0.0
    elif kind == "offset":
        # Far from the origin: centroid sums and centring round.
        src += [1e6, -3e5, 7e5]
    rotation = se3.axis_angle_to_rotation([0.2, -0.7, 0.4], 0.5)
    tgt = src @ rotation.T + [1.0, 2.0, -0.5]
    if kind == "reflection":
        tgt[:, 2] *= -1.0
    if kind == "pure_outliers":
        tgt = rng.normal(size=(m, 3)) * 5.0
    else:
        outliers = rng.random(m) < 0.35
        tgt[outliers] += rng.normal(scale=6.0, size=(int(outliers.sum()), 3))
    return src * scale, tgt * scale, 0.3 * scale


KINDS = (
    "generic",
    "collinear",
    "half_collinear",
    "duplicate",
    "coplanar",
    "offset",
    "reflection",
    "pure_outliers",
    "small",
    "large",
)


class TestPerHypothesis:
    @pytest.mark.parametrize("kind", KINDS)
    def test_scene(self, kind):
        src, tgt, threshold = scene(kind)
        samples = draw_samples(len(src), 150, seed=1)
        valid = assert_hypotheses_match(src, tgt, samples, threshold)
        if kind == "collinear":
            assert not valid.any()
        if kind in ("half_collinear", "duplicate"):
            assert valid.any() and not valid.all()

    def test_three_pairs(self):
        src, tgt, threshold = scene("generic", m=3)
        assert_hypotheses_match(src, tgt, draw_samples(3, 20, seed=2), threshold)

    def test_empty_stack(self):
        src, tgt, threshold = scene("generic")
        valid, models, inliers = rejection._score_hypotheses(
            src, tgt, np.empty((0, 3), dtype=np.int64), threshold
        )
        assert valid.shape == (0,)
        assert models.shape == (0, 4, 4)
        assert inliers.shape == (0, len(src))

    def test_near_collinear_tolerance(self):
        """Samples whose ``|v1 x v2|`` sits within a few ulps of the
        tolerance: the flag must come from the same BLAS dot as the
        scalar ``np.linalg.norm`` (``einsum`` flips some of these)."""
        rng = np.random.default_rng(7)
        n_triples = 4000
        v1 = rng.normal(size=(n_triples, 3))
        v2 = rng.normal(size=(n_triples, 3))
        # Scale each pair so its cross product has norm ~1e-6, then
        # nudge by a few ulps either side.
        norms = np.linalg.norm(np.cross(v1, v2), axis=1)
        scale = np.sqrt(COLLINEAR_TOL / norms)
        nudge = 1.0 + rng.integers(-4, 5, size=n_triples) * np.finfo(float).eps
        v1 *= (scale * nudge)[:, None]
        v2 *= scale[:, None]
        src = np.stack([np.zeros_like(v1), v1, v2], axis=1).reshape(-1, 3)
        rotation = se3.axis_angle_to_rotation([1.0, 0.0, 0.0], 0.3)
        tgt = src @ rotation.T
        near = [
            abs(float(np.linalg.norm(np.cross(a, b))) - COLLINEAR_TOL)
            <= 8 * np.spacing(COLLINEAR_TOL)
            for a, b in zip(v1, v2)
        ]
        assert np.mean(near) > 0.9
        flags = []
        for start in range(0, 3 * n_triples, 300):
            block = slice(start, start + 300)
            samples = np.arange(300).reshape(-1, 3)
            flags.append(
                assert_hypotheses_match(src[block], tgt[block], samples, 1e-7)
            )
        flags = np.concatenate(flags)
        assert 0.2 < flags.mean() < 0.8


class TestWholeRansac:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("iterations", [0, 1, 150])
    def test_scene(self, kind, iterations):
        src, tgt, threshold = scene(kind)
        corr = identity_correspondences(len(src))
        result = reject_ransac(corr, src, tgt, threshold, iterations, seed=3)
        expected = scalar_ransac(corr, src, tgt, threshold, iterations, seed=3)
        assert_same_result(result, expected)

    def test_three_pairs(self):
        src, tgt, threshold = scene("generic", m=3)
        corr = identity_correspondences(3)
        assert_same_result(
            reject_ransac(corr, src, tgt, threshold, 10, seed=4),
            scalar_ransac(corr, src, tgt, threshold, 10, seed=4),
        )

    def test_chunks_cross_boundaries(self):
        """5,000 pairs and 400 hypotheses: the element budget splits the
        hypotheses into many chunks."""
        src, tgt, threshold = scene("generic", m=5000, seed=5)
        assert 400 * 5000 * 3 > 4 * rejection._RANSAC_CHUNK_ELEMENTS
        corr = identity_correspondences(len(src))
        assert_hypotheses_match(src, tgt, draw_samples(len(src), 400, seed=6), threshold)
        assert_same_result(
            reject_ransac(corr, src, tgt, threshold, 400, seed=6),
            scalar_ransac(corr, src, tgt, threshold, 400, seed=6),
        )


def tied_scene():
    """Two equally large clusters under different rigid motions: every
    sample inside one cluster counts exactly that cluster's size."""
    rng = np.random.default_rng(11)
    size = 8
    src = rng.normal(size=(2 * size, 3)) * 5.0
    motions = [
        se3.make_transform(se3.axis_angle_to_rotation([0.0, 0.0, 1.0], 0.4), [1, 0, 0]),
        se3.make_transform(se3.axis_angle_to_rotation([1.0, 0.0, 0.0], -0.9), [0, 9, 3]),
    ]
    tgt = np.concatenate(
        [se3.apply_transform(m, src[i * size : (i + 1) * size]) for i, m in enumerate(motions)]
    )
    return src, tgt, 1e-3


class TestTies:
    ITERATIONS = 60
    SEED = 14

    def test_fixture_has_tied_winners_in_both_clusters(self):
        """Guard: the first and the last best-count hypotheses differ,
        so keeping a later tie (``>=`` or the last argmax) changes the
        result."""
        src, tgt, threshold = tied_scene()
        samples = draw_samples(len(src), self.ITERATIONS, self.SEED)
        masks = [
            h[1] for h in (scalar_hypothesis(src, tgt, s, threshold) for s in samples) if h
        ]
        counts = np.array([m.sum() for m in masks])
        best = np.flatnonzero(counts == counts.max())
        assert len(best) > 2
        assert not np.array_equal(masks[best[0]], masks[best[-1]])

    @pytest.mark.parametrize("per_chunk", [None, 1, 2, 7])
    def test_first_best_wins(self, monkeypatch, per_chunk):
        src, tgt, threshold = tied_scene()
        if per_chunk is not None:
            monkeypatch.setattr(
                rejection, "_RANSAC_CHUNK_ELEMENTS", per_chunk * 3 * len(src)
            )
        corr = identity_correspondences(len(src))
        result = reject_ransac(corr, src, tgt, threshold, self.ITERATIONS, self.SEED)
        expected = scalar_ransac(corr, src, tgt, threshold, self.ITERATIONS, self.SEED)
        assert_same_result(result, expected)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_raises_like_the_scalar_fit(self, bad):
        src, tgt, threshold = scene("generic", m=20)
        src[5] = bad
        corr = identity_correspondences(len(src))
        with np.errstate(invalid="ignore"):
            with pytest.raises(np.linalg.LinAlgError):
                scalar_ransac(corr, src, tgt, threshold, 50)
            with pytest.raises(np.linalg.LinAlgError):
                reject_ransac(corr, src, tgt, threshold, 50)


@pytest.fixture(scope="module")
def design_point_rejections(lidar_pair):
    """Each design point's rejection input, recorded during a real
    ``register`` of the ``lidar_pair`` fixture."""
    source, target, _ = lidar_pair
    recorded = {}
    for name in DESIGN_POINT_NAMES:

        def record(correspondences, source_points, target_points, config, name=name):
            recorded[name] = (correspondences, source_points, target_points, config)
            return reject_correspondences(
                correspondences, source_points, target_points, config
            )

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline_module, "reject_correspondences", record)
            Pipeline(design_point(name)).register(source, target)
    return recorded


@pytest.mark.parametrize("name", DESIGN_POINT_NAMES)
def test_design_point_rejection(design_point_rejections, name, monkeypatch):
    correspondences, source_points, target_points, config = design_point_rejections[name]
    result = reject_correspondences(correspondences, source_points, target_points, config)

    ransac_inputs = []

    def oracle(corr, src, tgt, threshold, iterations, seed):
        ransac_inputs.append((corr, src, tgt, threshold, iterations, seed))
        return scalar_ransac(corr, src, tgt, threshold, iterations, seed)

    monkeypatch.setattr(rejection, "reject_ransac", oracle)
    expected = reject_correspondences(
        correspondences, source_points, target_points, config
    )
    assert_same_result(result, expected)
    assert len(ransac_inputs) == (config.method == "ransac")
    for corr, src, tgt, threshold, iterations, seed in ransac_inputs:
        src = np.asarray(src, dtype=np.float64)[corr.source_indices]
        tgt = np.asarray(tgt, dtype=np.float64)[corr.target_indices]
        assert_hypotheses_match(
            src, tgt, draw_samples(len(corr), iterations, seed), threshold
        )
