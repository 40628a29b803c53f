"""Correspondence rejection (pipeline stage 5, paper Sec. 3.1).

Removes incorrect key-point correspondences before the initial
transformation is estimated.  Algorithm choices per Table 1: simple
distance thresholding and the classic RANSAC [19]; we additionally
provide Lowe's ratio test (the Table-1 "ratio threshold" knob) and
one-to-one de-duplication, both standard PCL rejectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import se3
from repro.registration.correspondence import Correspondences
from repro.registration.estimation import kabsch

__all__ = [
    "RejectionConfig",
    "reject_correspondences",
    "reject_distance",
    "reject_ratio",
    "reject_one_to_one",
    "reject_ransac",
    "RansacResult",
]

# Sample rows closer to collinear than this (|v1 x v2|) fit no model.
_COLLINEAR_TOL = 1e-6
# Element budget of one (hypotheses, pairs, 3) scoring temporary;
# hypotheses are scored in chunks that stay under it.
_RANSAC_CHUNK_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class RejectionConfig:
    """Rejector choice + thresholds (Table 1 knobs).

    ``method``
        ``"threshold"`` applies the distance (and optional ratio)
        thresholds only; ``"ransac"`` additionally runs RANSAC and
        keeps its inlier set.
    ``distance_threshold``
        Maximum allowed *match* distance (feature-space units for KPCE
        output); ``None`` disables.
    ``ratio_threshold``
        Lowe's best/second-best ratio; ``None`` disables.  Requires the
        correspondences to carry ``second_distances``.
    ``ransac_threshold``
        3D inlier distance for RANSAC (meters).
    """

    method: str = "ransac"
    distance_threshold: float | None = None
    ratio_threshold: float | None = None
    one_to_one: bool = True
    ransac_threshold: float = 0.5
    ransac_iterations: int = 200
    ransac_seed: int = 0

    def __post_init__(self):
        if self.method not in ("threshold", "ransac"):
            raise ValueError("method must be 'threshold' or 'ransac'")
        if self.ransac_threshold <= 0:
            raise ValueError("ransac_threshold must be positive")
        if self.ransac_iterations < 1:
            raise ValueError("ransac_iterations must be >= 1")


@dataclass
class RansacResult:
    """RANSAC output: surviving inliers and the model they support."""

    correspondences: Correspondences
    transformation: np.ndarray
    inlier_ratio: float


def reject_distance(
    correspondences: Correspondences, threshold: float
) -> Correspondences:
    """Drop pairs whose match distance exceeds ``threshold``."""
    return correspondences.select(correspondences.distances <= threshold)


def reject_ratio(
    correspondences: Correspondences, ratio: float
) -> Correspondences:
    """Lowe's ratio test: best must beat second-best by ``ratio``."""
    if correspondences.second_distances is None:
        raise ValueError(
            "ratio rejection needs second_distances; run KPCE with with_second"
        )
    seconds = np.maximum(correspondences.second_distances, 1e-12)
    return correspondences.select(correspondences.distances / seconds <= ratio)


def reject_one_to_one(correspondences: Correspondences) -> Correspondences:
    """Keep only the closest source match for every target point."""
    if len(correspondences) == 0:
        return correspondences
    # Vectorized first-wins scan: in distance order (stable), the first
    # occurrence of each target is its closest source match.
    order = np.argsort(correspondences.distances, kind="stable")
    targets = correspondences.target_indices[order]
    by_target = np.argsort(targets, kind="stable")
    first = np.r_[True, targets[by_target][1:] != targets[by_target][:-1]]
    keep_rows = order[by_target[first]]
    return correspondences.select(np.sort(keep_rows.astype(np.int64)))


def reject_ransac(
    correspondences: Correspondences,
    source_points: np.ndarray,
    target_points: np.ndarray,
    threshold: float = 0.5,
    iterations: int = 200,
    seed: int = 0,
) -> RansacResult:
    """Classic RANSAC over correspondences [19].

    Repeatedly samples 3 pairs, fits a rigid transform (Kabsch), and
    counts inliers within ``threshold``; the best model (the first of
    equal counts) is refit on its full inlier set.  ``source_points`` /
    ``target_points`` are the 3D positions the correspondence indices
    refer to.  Fewer than 3 pairs admit no model: the result keeps none.

    The samples are drawn up front in hypothesis order (scoring draws
    no randomness), then fit and scored in stacked chunks by
    :func:`_score_hypotheses`, bit-identical to one scalar
    :func:`kabsch` fit and residual pass per hypothesis.
    """
    n = len(correspondences)
    if n < 3:
        return _no_model(correspondences)
    rng = np.random.default_rng(seed)
    src = np.asarray(source_points, dtype=np.float64)[correspondences.source_indices]
    tgt = np.asarray(target_points, dtype=np.float64)[correspondences.target_indices]
    samples = np.array(
        [rng.choice(n, size=3, replace=False) for _ in range(iterations)],
        dtype=np.int64,
    ).reshape(-1, 3)

    best_inliers: np.ndarray | None = None
    best_count = -1
    chunk = max(1, _RANSAC_CHUNK_ELEMENTS // (3 * n))
    for start in range(0, len(samples), chunk):
        _, _, inliers = _score_hypotheses(
            src, tgt, samples[start : start + chunk], threshold
        )
        if not len(inliers):
            continue
        counts = inliers.sum(axis=1)
        top = int(np.argmax(counts))
        if counts[top] > best_count:
            best_count = int(counts[top])
            best_inliers = inliers[top].copy()

    if best_inliers is None or best_count < 3:
        return _no_model(correspondences)
    transformation = kabsch(src[best_inliers], tgt[best_inliers])
    # One re-scoring pass with the refit model tightens the inlier set.
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


def _no_model(correspondences: Correspondences) -> RansacResult:
    """The RANSAC result that keeps no pair: identity, ratio 0."""
    keep = np.zeros(len(correspondences), dtype=bool)
    return RansacResult(correspondences.select(keep), np.eye(4), 0.0)


def _score_hypotheses(
    src: np.ndarray, tgt: np.ndarray, samples: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit and score a stack of 3-pair RANSAC hypotheses.

    Returns the non-degenerate flag per sample row, then the 4x4 models
    and ``(h, n)`` inlier masks of the non-degenerate rows, in order.
    Every step is the stacked form of the scalar one, operation for
    operation: the collinearity norm is ``sqrt`` of a ``(1, 3) @ (3, 1)``
    matmul, which calls the same BLAS dot as ``np.linalg.norm`` of a 1-D
    vector (``einsum`` and ``add.reduce`` sum in other orders and flip
    rows near the tolerance); the fit follows :func:`kabsch` with unit
    weights, and each stacked matmul, ``svd`` and ``det`` makes the
    per-matrix BLAS/LAPACK call the scalar form makes.  A NaN norm
    counts as non-degenerate, so ``svd`` raises on it as the scalar fit
    does.
    """
    s = src[samples]
    t = tgt[samples]
    cross = np.cross(s[:, 1] - s[:, 0], s[:, 2] - s[:, 0])
    norms = np.sqrt(cross[:, None, :] @ cross[:, :, None])[:, 0, 0]
    valid = ~(norms < _COLLINEAR_TOL)
    s, t = s[valid], t[valid]

    s_centroid = s.sum(axis=1) / 3.0
    t_centroid = t.sum(axis=1) / 3.0
    cross_cov = np.swapaxes(s - s_centroid[:, None], 1, 2) @ (t - t_centroid[:, None])
    u, _, vt = np.linalg.svd(cross_cov)
    v = np.swapaxes(vt, 1, 2)
    ut = np.swapaxes(u, 1, 2)
    sign = np.sign(np.linalg.det(v @ ut))
    correction = np.zeros_like(cross_cov)
    correction[:, 0, 0] = correction[:, 1, 1] = 1.0
    correction[:, 2, 2] = np.where(sign != 0, sign, 1.0)
    rotation = v @ correction @ ut
    models = np.zeros((len(rotation), 4, 4))
    models[:, :3, :3] = rotation
    models[:, :3, 3] = t_centroid - (rotation @ s_centroid[:, :, None])[:, :, 0]
    models[:, 3, 3] = 1.0

    moved = src @ np.swapaxes(models[:, :3, :3], 1, 2)
    moved += models[:, None, :3, 3]
    moved -= tgt
    return valid, models, np.linalg.norm(moved, axis=-1) < threshold


def reject_correspondences(
    correspondences: Correspondences,
    source_points: np.ndarray,
    target_points: np.ndarray,
    config: RejectionConfig | None = None,
) -> RansacResult:
    """Apply the configured rejection cascade.

    Always returns a :class:`RansacResult`; for the plain threshold
    method the transformation is fit with Kabsch on the survivors.
    """
    config = config or RejectionConfig()
    current = correspondences
    if config.distance_threshold is not None:
        current = reject_distance(current, config.distance_threshold)
    if config.ratio_threshold is not None and current.second_distances is not None:
        current = reject_ratio(current, config.ratio_threshold)
    if config.one_to_one:
        current = reject_one_to_one(current)

    if config.method == "ransac":
        return reject_ransac(
            current,
            source_points,
            target_points,
            threshold=config.ransac_threshold,
            iterations=config.ransac_iterations,
            seed=config.ransac_seed,
        )
    if len(current) >= 3:
        src = np.asarray(source_points)[current.source_indices]
        tgt = np.asarray(target_points)[current.target_indices]
        transformation = kabsch(src, tgt)
        inlier_ratio = 1.0 if len(correspondences) == 0 else len(current) / len(
            correspondences
        )
    else:
        transformation = np.eye(4)
        inlier_ratio = 0.0
    return RansacResult(current, transformation, inlier_ratio)

