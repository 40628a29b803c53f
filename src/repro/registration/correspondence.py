"""Correspondence estimation: KPCE and RPCE (paper Sec. 3.1).

Two stages of the pipeline match points between frames:

* **KPCE** (Key-Point Correspondence Estimation) matches keypoints by
  nearest neighbor *in the high-dimensional feature space* produced by
  the descriptor stage.  The paper's Table-1 knob is reciprocity
  (keep a pair only when the match holds in both directions).
* **RPCE** (Raw-Point Correspondence Estimation) matches every source
  point to the target *in 3D space* inside the ICP fine-tuning loop —
  the single heaviest NN-search consumer in the pipeline.  Algorithm
  choices per Table 1: plain nearest neighbor, normal shooting, and
  range-image projection [10].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.io.pointcloud import PointCloud
from repro.registration.keypoints.narf import RangeImage, build_range_image
from repro.registration.search import (
    NeighborSearcher,
    NNReuseAnchor,
    SearchConfig,
    build_searcher,
)

__all__ = [
    "Correspondences",
    "KPCEConfig",
    "estimate_feature_correspondences",
    "RPCEConfig",
    "estimate_point_correspondences",
]


@dataclass
class Correspondences:
    """Matched index pairs with their match distances.

    ``distances`` live in whichever space the matcher searched (feature
    space for KPCE, 3D for RPCE).  ``second_distances`` — the distance
    to the runner-up match — is filled when the matcher was asked to
    support Lowe's ratio rejection.
    """

    source_indices: np.ndarray
    target_indices: np.ndarray
    distances: np.ndarray
    second_distances: np.ndarray | None = None

    def __post_init__(self):
        if not (
            len(self.source_indices)
            == len(self.target_indices)
            == len(self.distances)
        ):
            raise ValueError("correspondence arrays must align")

    def __len__(self) -> int:
        return len(self.source_indices)

    def select(self, mask: np.ndarray) -> "Correspondences":
        """Subset by boolean mask or index array."""
        return Correspondences(
            self.source_indices[mask],
            self.target_indices[mask],
            self.distances[mask],
            None if self.second_distances is None else self.second_distances[mask],
        )


# ---------------------------------------------------------------------------
# KPCE
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KPCEConfig:
    """Feature-space matching knobs (Table 1: reciprocity).

    ``backend`` selects how the feature space is searched.  KD-trees
    degrade in high dimensions (SHOT is 352-d), so ``"bruteforce"`` is a
    legitimate exact alternative; the paper's pipelines use KD-tree
    (FLANN) which we default to.  ``with_second`` also retrieves the
    second-nearest match to enable ratio rejection downstream.
    """

    reciprocal: bool = True
    backend: str = "canonical"
    with_second: bool = False

    def __post_init__(self):
        if self.backend not in ("canonical", "bruteforce"):
            raise ValueError("backend must be 'canonical' or 'bruteforce'")


def estimate_feature_correspondences(
    source_features: np.ndarray,
    target_features: np.ndarray,
    config: KPCEConfig | None = None,
    profiler=None,
    stats=None,
    injector=None,
) -> Correspondences:
    """Match source keypoints to target keypoints in feature space.

    Returns row indices into the respective feature arrays (the caller
    maps them back to point indices).
    """
    config = config or KPCEConfig()
    source_features = np.asarray(source_features, dtype=np.float64)
    target_features = np.asarray(target_features, dtype=np.float64)
    if len(source_features) == 0 or len(target_features) == 0:
        empty = np.empty(0, dtype=np.int64)
        return Correspondences(empty, empty.copy(), np.empty(0))

    search_config = SearchConfig(backend=config.backend)
    target_index = build_searcher(
        target_features, search_config, profiler, stats, injector
    )
    need_second = config.with_second and len(target_features) >= 2

    # One batched feature-space search for the whole KPCE stage.
    if need_second:
        idx, d = target_index.knn_batch(source_features, 2)
        matches = idx[:, 0].astype(np.int64)
        dists = d[:, 0].copy()
        seconds = d[:, 1].copy() if d.shape[1] > 1 else np.full(len(d), np.inf)
    else:
        matches, dists = target_index.nn_batch(source_features)
        seconds = None
    if np.any(matches < 0):
        # Backends for this stage always fill every row; a -1 means an
        # injector produced padded/empty rows — fail loudly rather than
        # let Python's negative indexing fabricate a correspondence.
        raise ValueError("KPCE received empty nearest-neighbor rows")

    source_rows = np.arange(len(source_features), dtype=np.int64)
    if config.reciprocal:
        source_index = build_searcher(
            source_features, search_config, profiler, stats, injector
        )
        back, _ = source_index.nn_batch(target_features[matches])
        keep = back == source_rows
        source_rows = source_rows[keep]
        matches = matches[keep]
        dists = dists[keep]
        if seconds is not None:
            seconds = seconds[keep]
    return Correspondences(source_rows, matches, dists, seconds)


# ---------------------------------------------------------------------------
# RPCE
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RPCEConfig:
    """Raw-point matching knobs (Table 1: # of neighbors, reciprocity).

    ``method``
        ``"nearest"`` — plain NN in 3D (classic ICP);
        ``"normal_shooting"`` — among ``k_candidates`` nearest target
        points, pick the one closest to the ray along the source normal;
        ``"projection"`` — project the source point into the target's
        range image and take the hit pixel's point [10].
    ``max_distance``
        Pairs farther than this are dropped (ICP's correspondence gate).
    """

    method: str = "nearest"
    max_distance: float = np.inf
    reciprocal: bool = False
    k_candidates: int = 5

    def __post_init__(self):
        if self.method not in ("nearest", "normal_shooting", "projection"):
            raise ValueError(
                "method must be 'nearest', 'normal_shooting', or 'projection'"
            )
        if not self.max_distance > 0:  # also rejects NaN
            raise ValueError("max_distance must be positive")
        if self.k_candidates < 1:
            raise ValueError("k_candidates must be >= 1")


def estimate_point_correspondences(
    source_points: np.ndarray,
    target_searcher: NeighborSearcher,
    config: RPCEConfig | None = None,
    source_normals: np.ndarray | None = None,
    target_range_image: RangeImage | None = None,
    target_cloud: PointCloud | None = None,
    source_searcher: NeighborSearcher | None = None,
    nn_reuse: NNReuseAnchor | None = None,
) -> Correspondences:
    """Match every source point to a target point in 3D.

    ``source_points`` are already transformed into the target frame (the
    ICP loop applies the current transform before calling).  Extra
    context arguments are required per method: normals for normal
    shooting, a range image or the target cloud for projection, a
    source searcher for reciprocity.  ``nn_reuse`` carries the ``nearest``
    method's certified answers from one ICP iteration to the next (see
    :class:`~repro.registration.search.NNReuseAnchor`); the other
    methods ignore it.
    """
    config = config or RPCEConfig()
    source_points = np.asarray(source_points, dtype=np.float64)
    n = len(source_points)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return Correspondences(empty, empty.copy(), np.empty(0))

    if config.method == "nearest":
        matches, dists = target_searcher.nn_batch(source_points, nn_reuse)
    elif config.method == "normal_shooting":
        if source_normals is None:
            raise ValueError("normal_shooting requires source_normals")
        matches, dists = _match_normal_shooting(
            source_points, source_normals, target_searcher, config.k_candidates
        )
    else:
        if target_range_image is None:
            if target_cloud is None:
                raise ValueError(
                    "projection requires target_range_image or target_cloud"
                )
            target_range_image = build_range_image(target_cloud)
        matches, dists = _match_projection(
            source_points, target_searcher.points, target_range_image
        )

    source_rows = np.arange(n, dtype=np.int64)
    valid = (matches >= 0) & (dists <= config.max_distance)
    source_rows, matches, dists = source_rows[valid], matches[valid], dists[valid]

    if config.reciprocal and source_searcher is not None and len(matches):
        target_points = target_searcher.points
        back, _ = source_searcher.nn_batch(target_points[matches])
        keep = back == source_rows
        source_rows, matches, dists = (
            source_rows[keep],
            matches[keep],
            dists[keep],
        )
    return Correspondences(source_rows, matches, dists)


def _match_normal_shooting(
    source_points: np.ndarray,
    source_normals: np.ndarray,
    target_searcher: NeighborSearcher,
    k_candidates: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Pick, among the k nearest, the candidate best aligned with the
    source normal ray (smallest perpendicular distance to the ray)."""
    target_points = target_searcher.points
    matches = np.empty(len(source_points), dtype=np.int64)
    dists = np.empty(len(source_points))
    # One batched kNN for the stage; the per-point candidate selection
    # below is cheap (k is small) and kept scalar for exactness.
    all_idx, all_d = target_searcher.knn_batch(source_points, k_candidates)
    for i, point in enumerate(source_points):
        idx, d = all_idx[i], all_d[i]
        valid = idx >= 0  # approximate rows may be padded with misses
        idx, d = idx[valid], d[valid]
        if len(idx) == 0:
            matches[i], dists[i] = -1, np.inf
            continue
        normal = source_normals[i]
        norm = np.linalg.norm(normal)
        if norm < 1e-9:
            matches[i], dists[i] = int(idx[0]), float(d[0])
            continue
        normal = normal / norm
        offsets = target_points[idx] - point
        along = offsets @ normal
        perp = offsets - along[:, None] * normal[None, :]
        perp_dist = np.linalg.norm(perp, axis=1)
        best = int(np.argmin(perp_dist))
        matches[i], dists[i] = int(idx[best]), float(d[best])
    return matches, dists


def _match_projection(
    source_points: np.ndarray,
    target_points: np.ndarray,
    image: RangeImage,
) -> tuple[np.ndarray, np.ndarray]:
    """Project each source point into the target range image.

    The pixel is found by spherical coordinates; if it is empty the
    3x3 pixel neighborhood is searched for the nearest valid return.
    """
    rows, cols = image.shape
    matches = np.full(len(source_points), -1, dtype=np.int64)
    dists = np.full(len(source_points), np.inf)

    ranges = np.linalg.norm(source_points, axis=1)
    ok = ranges > 1e-9
    elevation = np.zeros(len(source_points))
    elevation[ok] = np.arcsin(np.clip(source_points[ok, 2] / ranges[ok], -1, 1))
    azimuth = np.arctan2(source_points[:, 1], source_points[:, 0])

    # Infer the image's angular layout from the valid target pixels.
    valid_rc = np.argwhere(image.valid_mask())
    if len(valid_rc) == 0:
        return matches, dists
    tgt_ranges = np.linalg.norm(target_points, axis=1)
    tgt_el = np.arcsin(
        np.clip(target_points[:, 2] / np.maximum(tgt_ranges, 1e-9), -1, 1)
    )
    el_lo, el_hi = float(tgt_el.min()), float(tgt_el.max()) + 1e-9

    row_idx = np.clip(
        ((elevation - el_lo) / (el_hi - el_lo) * (rows - 1)).astype(np.int64),
        0,
        rows - 1,
    )
    # Same [0, 2*pi) azimuth convention as the range-image builder.
    col_idx = np.clip(
        (np.mod(azimuth, 2 * np.pi) / (2 * np.pi) * (cols - 1)).astype(np.int64),
        0,
        cols - 1,
    )

    for i in range(len(source_points)):
        r, c = row_idx[i], col_idx[i]
        best_idx, best_dist = -1, np.inf
        for dr in (0, -1, 1):
            rr = r + dr
            if not 0 <= rr < rows:
                continue
            for dc in (0, -1, 1):
                cc = (c + dc) % cols
                pidx = image.point_index[rr, cc]
                if pidx < 0:
                    continue
                d = float(np.linalg.norm(target_points[pidx] - source_points[i]))
                if d < best_dist:
                    best_idx, best_dist = int(pidx), d
        matches[i], dists[i] = best_idx, best_dist
    return matches, dists
