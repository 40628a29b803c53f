"""Keyframe selection for the streaming SLAM subsystem.

A SLAM back end cannot afford to carry every frame: the pose graph,
loop-closure search, and global map all scale with the number of nodes.
The standard answer is *keyframes* — frames retained only when the
sensor has moved far enough (translation or rotation) from the last
retained one.  Each keyframe keeps the
:class:`~repro.registration.pipeline.FrameState` the streaming odometry
front end already produced for it, so later loop-closure verification
replays **zero** preprocessing: the downsampled cloud, normals, search
index, and (lazily) keypoints/descriptors are all reused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import se3
from repro.registration.pipeline import FrameState

__all__ = ["KeyframeConfig", "Keyframe", "KeyframePolicy"]


@dataclass(frozen=True)
class KeyframeConfig:
    """Motion thresholds that promote a frame to keyframe.

    A frame becomes a keyframe when its estimated motion since the last
    keyframe exceeds ``translation_threshold`` meters **or**
    ``rotation_threshold_deg`` degrees.  The defaults suit the synthetic
    sequences (~1-2 m, ~10-25 deg per frame); real outdoor LiDAR rigs
    typically use a few meters.  Thresholds of zero retain every frame.
    """

    translation_threshold: float = 1.0
    rotation_threshold_deg: float = 10.0

    def __post_init__(self):
        if self.translation_threshold < 0 or self.rotation_threshold_deg < 0:
            raise ValueError("keyframe thresholds must be non-negative")


@dataclass
class Keyframe:
    """One retained frame: identity, pose bookkeeping, reusable artifacts.

    ``index`` is the keyframe's id (dense, 0-based — also its pose-graph
    node id); ``frame_index`` locates it in the ingested stream.
    ``odometry_pose`` is the *open-loop* chained pose at creation time
    and never changes afterwards — odometry edges are derived from it.
    ``state`` is the front end's preprocessed ``FrameState``, which
    loop verification reuses as is.
    ``quarantined`` marks a keyframe whose pose rests on an unhealthy
    or motion-model-bridged registration: it still chains through the
    pose graph (the trajectory needs the node) but never anchors a
    loop closure — neither as the closing keyframe nor as a candidate
    — because a closure measured against a misplaced anchor would
    inject exactly the kind of false constraint the robust back end
    exists to contain.
    """

    index: int
    frame_index: int
    odometry_pose: np.ndarray
    state: FrameState
    quarantined: bool = False


class KeyframePolicy:
    """Decides which frames are retained, by motion thresholds."""

    def __init__(self, config: KeyframeConfig | None = None):
        self.config = config or KeyframeConfig()

    def is_keyframe(
        self, last_keyframe_pose: np.ndarray | None, pose: np.ndarray
    ) -> bool:
        """Whether ``pose`` has moved beyond threshold since the last keyframe.

        The very first frame (``last_keyframe_pose is None``) is always
        a keyframe — something must anchor the graph and the map.
        """
        if last_keyframe_pose is None:
            return True
        rotation, translation = se3.transform_distance(last_keyframe_pose, pose)
        return (
            translation >= self.config.translation_threshold
            or np.degrees(rotation) >= self.config.rotation_threshold_deg
        )
