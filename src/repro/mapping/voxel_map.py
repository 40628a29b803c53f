"""Re-anchorable global voxel map: one grouped table per keyframe.

The map fuses keyframe points into cubic voxels of edge ``voxel_size``:
each occupied voxel holds the centroid of every point that fell in it,
plus their count.  Each keyframe's contribution is stored once — its
recorded sensor-frame points and pose, plus the grouping of those
points at that pose: packed voxel keys (ascending), per-voxel point
sums and counts.

:meth:`VoxelMap.insert` and :meth:`VoxelMap.re_anchor` compute every
new grouping before they store anything, then replace whole tables.  A
rejected call therefore leaves the map as it was, no other keyframe's
table is ever touched, and nothing is subtracted from a shared sum, so
no number of re-anchorings can drift the map.

Readers see the fused view: one row per occupied voxel, ascending by
packed key, each voxel's sum one ``reduceat`` over its keyframes' sums
taken in keyframe-id order.  The view is built from the tables by the
same grouping routine that builds a table, on the first read after a
change, and cached until the next change.  It depends only on the keyframes' points and
current poses, never on the inserts and re-anchors that led there.
Spatial queries (nearest / radius) are vectorized scans of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.geometry import se3
from repro.io.pointcloud import PointCloud

__all__ = ["VoxelMapConfig", "VoxelMap"]

# Packed voxel-key layout: three biased 21-bit fields in one int64,
# most-significant x — packing is monotone in (kx, ky, kz), so sorting
# packed keys reproduces the lexicographic voxel order exactly.
_KEY_BITS = 21
_KEY_BIAS = 1 << (_KEY_BITS - 1)

# A keyframe whose optimized pose moved less than both tolerances keeps
# its table on re-anchoring: re-binning points that moved microns buys
# nothing.
_REANCHOR_TRANSLATION_TOL = 1e-6  # meters
_REANCHOR_ROTATION_TOL_DEG = 1e-4

# The grouping of no points: (keys (0,), sums (0, 3), counts (0,)).
_NO_ROWS = (
    np.empty(0, dtype=np.int64),
    np.empty((0, 3)),
    np.empty(0, dtype=np.int64),
)


def _pack_keys(cells: np.ndarray) -> np.ndarray:
    """Pack (N, 3) voxel coordinates into (N,) int64 keys.

    ``cells`` may hold floored floats: the range check runs before the
    integer cast, so no coordinate can wrap into a neighbouring field.
    """
    if len(cells) and (cells.min() < -_KEY_BIAS or cells.max() >= _KEY_BIAS):
        raise ValueError(
            f"voxel coordinates exceed the packed +-{_KEY_BIAS} range"
        )
    biased = cells.astype(np.int64) + _KEY_BIAS
    return (
        (biased[:, 0] << (2 * _KEY_BITS))
        | (biased[:, 1] << _KEY_BITS)
        | biased[:, 2]
    )


def _group(keys: np.ndarray, sums: np.ndarray, counts: np.ndarray):
    """Merge rows that share a packed key: ``(keys, sums, counts)``.

    A stable argsort keeps each key's rows in input order, the run
    starts mark where the sorted key changes, and one ``reduceat`` each
    adds a run's sums and counts.  Output keys ascend.  This one routine
    builds a keyframe's table (rows: its world points, count 1 each) and
    the fused view (rows: every table's rows, tables in keyframe-id
    order).
    """
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # Packed keys are non-negative, so the -1 sentinel opens the first run.
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return (
        keys[starts],
        # take() gathers (N, 3) rows ~3x faster than fancy indexing.
        np.add.reduceat(sums.take(order, axis=0), starts, axis=0),
        np.add.reduceat(counts[order], starts),
    )


class _Keyframe(NamedTuple):
    """One keyframe's contribution: its recorded input and grouping."""

    points: np.ndarray  # (N, 3) sensor-frame points
    pose: np.ndarray  # (4, 4) pose the table was grouped at
    table: tuple[np.ndarray, np.ndarray, np.ndarray]  # keys, sums, counts


@dataclass(frozen=True)
class VoxelMapConfig:
    """Map resolution: ``voxel_size`` is the fusion cell edge in meters."""

    voxel_size: float = 0.25

    def __post_init__(self):
        if self.voxel_size <= 0:
            raise ValueError("voxel_size must be positive")


class VoxelMap:
    """A fused global point map, keyed by packed voxel key, re-anchorable."""

    def __init__(self, config: VoxelMapConfig | None = None):
        self.config = config or VoxelMapConfig()
        self._keyframes: dict[int, _Keyframe] = {}
        # (keys (V,), sums (V, 3), counts (V,)); None after a change.
        self._view: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Occupancy accounting.
    # ------------------------------------------------------------------

    @property
    def n_voxels(self) -> int:
        return len(self._fused_view()[0])

    @property
    def n_points(self) -> int:
        """Total fused points (occupancy mass) across all voxels."""
        return int(self._fused_view()[2].sum())

    def count(self, key: tuple[int, int, int]) -> int:
        """Occupancy count of one voxel (0 when empty)."""
        keys, _, counts = self._fused_view()
        packed = _pack_keys(np.array([key], dtype=np.int64))[0]
        row = int(np.searchsorted(keys, packed))
        return int(counts[row]) if row < len(keys) and keys[row] == packed else 0

    def keys(self, points: np.ndarray) -> np.ndarray:
        """Integer voxel coordinates for an (N, 3) array of points."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return np.floor(points / self.config.voxel_size).astype(np.int64)

    # ------------------------------------------------------------------
    # Insertion and re-anchoring.
    # ------------------------------------------------------------------

    def insert(self, source_id: int, local_points: np.ndarray, pose: np.ndarray) -> None:
        """Fuse a keyframe's sensor-frame points into the map at ``pose``.

        ``source_id`` identifies the contribution for later
        re-anchoring; inserting an id twice replaces its previous
        contribution.  Non-finite input or a voxel outside the packed
        key range raises ``ValueError`` and leaves the map as it was.
        """
        local_points = np.atleast_2d(np.asarray(local_points, dtype=np.float64))
        if local_points.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {local_points.shape}")
        self._keyframes[source_id] = self._grouped(
            local_points, np.array(pose, dtype=np.float64)
        )
        self._view = None

    def re_anchor(self, poses: dict[int, np.ndarray]) -> int:
        """Move contributions to optimized poses; returns how many moved.

        Keyframes whose pose moved less than the re-anchoring tolerances
        keep their table, and ids the map does not hold are ignored.
        Every moved keyframe's table is regrouped before any is stored,
        so a rejected pose raises ``ValueError`` and leaves the map as
        it was.
        """
        moved = {}
        for source_id, new_pose in poses.items():
            keyframe = self._keyframes.get(source_id)
            if keyframe is None:
                continue
            rotation, translation = se3.transform_distance(keyframe.pose, new_pose)
            if (
                translation < _REANCHOR_TRANSLATION_TOL
                and np.degrees(rotation) < _REANCHOR_ROTATION_TOL_DEG
            ):
                continue
            moved[source_id] = self._grouped(
                keyframe.points, np.array(new_pose, dtype=np.float64)
            )
        if moved:
            self._keyframes.update(moved)
            self._view = None
        return len(moved)

    def _grouped(self, local_points: np.ndarray, pose: np.ndarray) -> _Keyframe:
        """A keyframe's record: its points grouped by voxel at ``pose``."""
        if not (np.isfinite(local_points).all() and np.isfinite(pose).all()):
            raise ValueError("keyframe points and pose must be finite")
        world = se3.apply_transform(pose, local_points)
        keys = _pack_keys(np.floor(world / self.config.voxel_size))
        table = _group(keys, world, np.ones(len(world), dtype=np.int64))
        return _Keyframe(local_points, pose, table)

    # ------------------------------------------------------------------
    # Fused views and spatial queries.
    # ------------------------------------------------------------------

    def _fused_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The fused view ``(keys, sums, counts)``, ascending by key."""
        if self._view is None:
            # Stack the tables column by column, in keyframe-id order.
            columns = zip(
                _NO_ROWS,
                *(self._keyframes[i].table for i in sorted(self._keyframes)),
            )
            self._view = _group(*(np.concatenate(c) for c in columns))
        return self._view

    def fused_points(self) -> np.ndarray:
        """Per-voxel fused centroids, (V, 3), ascending by voxel key."""
        _, sums, counts = self._fused_view()
        return sums / counts[:, None]

    def to_cloud(self) -> PointCloud:
        """The fused map as a ``PointCloud`` with a ``count`` channel."""
        return PointCloud(self.fused_points(), count=self._fused_view()[2].copy())

    def radius(self, query: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
        """Fused points within ``r`` of ``query``: (points (K, 3), dists).

        Results are ordered by ascending distance.
        """
        if r < 0:
            raise ValueError("radius must be non-negative")
        points, dists = self._distances(query)
        hits = np.flatnonzero(dists <= r)
        hits = hits[np.argsort(dists[hits], kind="stable")]
        return points[hits], dists[hits]

    def nearest(self, query: np.ndarray) -> tuple[np.ndarray, float]:
        """The fused point nearest ``query``: (point (3,), distance).

        Raises on an empty map.
        """
        points, dists = self._distances(query)
        if len(points) == 0:
            raise ValueError("cannot query an empty map")
        best = int(np.argmin(dists))
        return points[best], float(dists[best])

    def _distances(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every fused centroid and its distance to ``query``."""
        points = self.fused_points()
        query = np.asarray(query, dtype=np.float64).reshape(3)
        return points, np.linalg.norm(points - query, axis=1)
