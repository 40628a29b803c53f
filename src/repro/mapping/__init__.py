"""The streaming SLAM subsystem: keyframes, loop closure, pose graph, map.

The paper motivates registration as the engine of 3D reconstruction and
SLAM (Sec. 2.2: frames "aligned against one another and merged
together").  This package supplies everything *around* the registration
pipeline that turns open-loop odometry into a drift-corrected map:

* :mod:`~repro.mapping.keyframes` — which frames to retain, keeping
  their already-preprocessed ``FrameState`` artifacts;
* :mod:`~repro.mapping.loop_closure` — revisit detection by pose
  proximity, verified through the existing ``Pipeline.match`` path;
* :mod:`~repro.mapping.pose_graph` — SE(3) graph optimization that
  redistributes loop-closure corrections over the trajectory;
* :mod:`~repro.mapping.voxel_map` — a re-anchorable global voxel map
  with fused points and occupancy counts, one table per keyframe;
* :mod:`~repro.mapping.mapper` — :class:`StreamingMapper`, the engine
  that streams frames through all of the above.
"""

from repro.mapping.keyframes import Keyframe, KeyframeConfig, KeyframePolicy
from repro.mapping.loop_closure import LoopCloser, LoopClosure, LoopClosureConfig
from repro.mapping.mapper import MapperConfig, MappingStats, StreamingMapper
from repro.mapping.pose_graph import (
    PoseGraph,
    PoseGraphConfig,
    PoseGraphEdge,
    PoseGraphResult,
)
from repro.mapping.presets import urban_loop_mapper_config, urban_loop_pipeline
from repro.mapping.voxel_map import VoxelMap, VoxelMapConfig

__all__ = [
    "KeyframeConfig",
    "Keyframe",
    "KeyframePolicy",
    "LoopClosureConfig",
    "LoopClosure",
    "LoopCloser",
    "PoseGraphConfig",
    "PoseGraphEdge",
    "PoseGraphResult",
    "PoseGraph",
    "VoxelMapConfig",
    "VoxelMap",
    "MapperConfig",
    "MappingStats",
    "StreamingMapper",
    "urban_loop_pipeline",
    "urban_loop_mapper_config",
]
