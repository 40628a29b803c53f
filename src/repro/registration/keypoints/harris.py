"""Harris 3D keypoint detector (paper Table 1: HARRIS [27, 61]).

Sipiran & Bustos' extension of the Harris corner detector to 3D
surfaces: instead of image gradients, the covariance of surface normals
over a support neighborhood plays the role of the structure tensor.
Corners — points whose neighborhoods bend in multiple directions — score
high; planar and cylindrical regions score low.
"""

from __future__ import annotations

import numpy as np

from repro.core.ragged import gathered_moment_covariances
from repro.io.pointcloud import PointCloud
from repro.registration.search import NeighborSearcher

__all__ = ["harris_keypoints"]

# Rounding allowance of the eigen-product skip test, relative to F²:
# the bound and eigh's eigenvalues are each accurate to a few ulps of F.
_BOUND_MARGIN = 2.0**-40


def harris_keypoints(
    cloud: PointCloud,
    searcher: NeighborSearcher,
    radius: float = 1.0,
    k: float = 0.04,
    threshold: float = 1e-4,
    non_max_radius: float | None = None,
    response: str = "eigen_product",
) -> np.ndarray:
    """Return indices of Harris-3D keypoints.

    Parameters mirror PCL's ``HarrisKeypoint3D``: ``radius`` is the
    support for the normal-covariance structure tensor, ``k`` is the
    Harris trace weight, ``threshold`` drops weak responses, and
    ``non_max_radius`` (``None``: ``radius``) enforces spatial
    non-maximum suppression so keypoints spread over the frame.

    ``response`` selects the corner measure over the structure tensor's
    eigenvalues ``l1 <= l2 <= l3``:

    * ``"eigen_product"`` (default) — ``l1 * l2``, a Shi-Tomasi-style
      measure that is positive only where normals vary in at least two
      directions (true corners, pole junctions) and zero on planes *and*
      straight edges, which slide under registration.  On piecewise-
      planar LiDAR scenes the classic measure below is degenerate
      (``det`` vanishes whenever fewer than three plane orientations
      meet), so this is the robust default.
    * ``"harris"`` — the classic ``det - k * trace^2``.

    Requires ``cloud`` to carry normals (run normal estimation first).
    """
    if response not in ("eigen_product", "harris"):
        raise ValueError("response must be 'eigen_product' or 'harris'")
    if not cloud.has_normals:
        raise ValueError("Harris 3D requires normals; run estimate_normals first")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if non_max_radius is None:
        non_max_radius = radius
    elif non_max_radius <= 0:
        raise ValueError("non_max_radius must be positive")
    points = cloud.points
    normals = cloud.normals

    # One batched radius search (nested-radius reusable: the queries
    # are the indexed points themselves), delivered CSR-natively, then
    # the normal-covariance structure tensors of every neighborhood
    # assembled and decomposed at once.
    ragged = searcher.radius_batch_csr(
        points, radius, self_indices=np.arange(len(points))
    )
    valid = ragged.counts >= 5

    # Neighbor normals are re-expressed relative to the center point's
    # normal (covariance is shift-invariant): normals cluster around
    # it, so the raw moments stay at difference scale instead of O(1),
    # keeping the cancellation in cov = M2/n - mean mean^T benign.
    tensors, _ = gathered_moment_covariances(
        normals,
        ragged.indices,
        ragged.offsets,
        center_source=normals,
        center_ids=ragged.segment_ids,
    )
    if response == "harris":
        det = np.linalg.det(tensors)
        trace = np.trace(tensors, axis1=1, axis2=2)
        scores = np.where(valid, det - k * trace * trace, -np.inf)
    else:
        scores = _eigen_product_scores(tensors, valid, threshold)

    candidates = np.nonzero(scores > threshold)[0]
    if len(candidates) == 0:
        return candidates.astype(np.int64)
    return _non_max_suppress(points, scores, candidates, non_max_radius)


def _eigen_product_scores(
    tensors: np.ndarray, valid: np.ndarray, threshold: float
) -> np.ndarray:
    """``l1 * l2`` of each valid tensor that can pass ``threshold``.

    With ``tr`` the trace, ``F`` the Frobenius norm and ``rho`` the
    Rayleigh quotient of the tensor's largest column, ``rho <= l3 <= F``,
    so ``l1 + l2 = tr - l3`` lies in ``[tr - F, tr - rho]`` and
    ``l1 * l2 <= ((l1 + l2) / 2)² <= max((tr - F)², (tr - rho)²) / 4``.
    A row whose bound plus a rounding margin stays below
    ``threshold / 2`` cannot pass and skips ``eigh``; every other valid
    row is scored by the same per-matrix LAPACK call as a full stacked
    ``eigh``.  Skipped and invalid rows score ``-inf``.  A threshold
    ``<= 0`` or NaN skips nothing (the bound is never negative), nor does
    a tensor whose bound overflows or is NaN.
    """
    n = len(tensors)
    with np.errstate(over="ignore", invalid="ignore"):
        trace = tensors[:, 0, 0] + tensors[:, 1, 1] + tensors[:, 2, 2]
        column_sq = np.einsum("ijk,ijk->ik", tensors, tensors)
        frobenius_sq = column_sq.sum(axis=1)
        largest = np.argmax(column_sq, axis=1)
        column = tensors[np.arange(n), :, largest]
        rho = np.divide(
            np.einsum("ij,ij->i", column, np.einsum("ijk,ik->ij", tensors, column)),
            column_sq[np.arange(n), largest],
            out=np.zeros(n),
            where=frobenius_sq > 0,
        )
        frobenius = np.sqrt(frobenius_sq)
        bound = np.maximum((trace - frobenius) ** 2, (trace - rho) ** 2) / 4
        hopeless = bound + _BOUND_MARGIN * frobenius_sq < threshold / 2
    rows = np.flatnonzero(valid & ~hopeless)
    scores = np.full(n, -np.inf)
    if len(rows):
        eigenvalues = np.linalg.eigh(tensors[rows])[0]
        scores[rows] = eigenvalues[:, 0] * eigenvalues[:, 1]
    return scores


def _non_max_suppress(
    points: np.ndarray,
    response: np.ndarray,
    candidates: np.ndarray,
    radius: float,
) -> np.ndarray:
    """Greedy spatial NMS: keep strongest, drop neighbors within radius.

    Candidates are visited strongest first (ties by position).  Each
    one kept marks every later candidate within the radius: one
    coordinate-major row of squared distances, summed
    ``(dx² + dz²) + dy²`` (the ``einsum`` lane order) and compared
    strictly.
    """
    order = candidates[np.argsort(-response[candidates], kind="stable")]
    x, y, z = np.ascontiguousarray(points[order].T)
    r_sq = radius * radius
    suppressed = np.zeros(len(order), dtype=bool)
    for i in range(len(order)):
        if suppressed[i]:
            continue
        dx = x[i + 1 :] - x[i]
        dy = y[i + 1 :] - y[i]
        dz = z[i + 1 :] - z[i]
        suppressed[i + 1 :] |= (dx * dx + dz * dz) + dy * dy < r_sq
    return np.sort(order[~suppressed])
