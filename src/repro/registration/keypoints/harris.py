"""Harris 3D keypoint detector (paper Table 1: HARRIS [27, 61]).

Sipiran & Bustos' extension of the Harris corner detector to 3D
surfaces: instead of image gradients, the covariance of surface normals
over a support neighborhood plays the role of the structure tensor.
Corners — points whose neighborhoods bend in multiple directions — score
high; planar and cylindrical regions score low.
"""

from __future__ import annotations

import numpy as np

from repro.core.ragged import batched_eigh, gathered_moment_covariances
from repro.io.pointcloud import PointCloud
from repro.registration.search import NeighborSearcher

__all__ = ["harris_keypoints"]


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
    ``non_max_radius`` (defaults to ``radius``) enforces spatial
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
        scores = det - k * trace * trace
    else:
        eigenvalues, _ = batched_eigh(tensors, valid)
        scores = eigenvalues[:, 0] * eigenvalues[:, 1]
    scores = np.where(valid, scores, -np.inf)

    candidates = np.nonzero(scores > threshold)[0]
    if len(candidates) == 0:
        return candidates.astype(np.int64)
    return _non_max_suppress(
        points, scores, candidates, non_max_radius or radius
    )


def _non_max_suppress(
    points: np.ndarray,
    response: np.ndarray,
    candidates: np.ndarray,
    radius: float,
) -> np.ndarray:
    """Greedy spatial NMS: keep strongest, drop neighbors within radius.

    The kept points fill a preallocated buffer, so a candidate is tested
    against a slice of it instead of a fresh copy of every point kept so
    far.
    """
    order = candidates[np.argsort(-response[candidates], kind="stable")]
    kept = np.empty(len(order), dtype=np.int64)
    kept_points = np.empty((len(order),) + points.shape[1:], dtype=points.dtype)
    n_kept = 0
    r_sq = radius * radius
    for idx in order:
        p = points[idx]
        if n_kept:
            diff = kept_points[:n_kept] - p
            if np.any(np.einsum("ij,ij->i", diff, diff) < r_sq):
                continue
        kept[n_kept] = idx
        kept_points[n_kept] = p
        n_kept += 1
    return np.sort(kept[:n_kept])
