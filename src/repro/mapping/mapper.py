"""The streaming SLAM engine: odometry front end + graph back end + map.

:class:`StreamingMapper` wraps the
:class:`~repro.registration.odometry.StreamingOdometry` engine — every
frame is still preprocessed exactly once, registered against its
predecessor, and handed forward as the next pair's target — and layers
the mapping subsystem on top: keyframe selection
(:mod:`repro.mapping.keyframes`), pose-proximity loop closure reusing
the keyframes' cached artifacts (:mod:`repro.mapping.loop_closure`),
SE(3) pose-graph optimization (:mod:`repro.mapping.pose_graph`), and an
incremental re-anchorable voxel map (:mod:`repro.mapping.voxel_map`).

With loop closure disabled (or none detected) the mapper is a strict
superset of streaming odometry: :meth:`StreamingMapper.trajectory`
returns the *bit-identical* open-loop trajectory, because no
optimization has touched it.  Once a loop closes, the pose graph
redistributes the accumulated drift over the keyframes, every frame is
re-expressed relative to its reference keyframe, and the voxel map is
re-anchored — the first place in the codebase where drift is actually
corrected rather than measured.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.geometry import se3
from repro.io.pointcloud import PointCloud
from repro.mapping.keyframes import Keyframe, KeyframeConfig, KeyframePolicy
from repro.mapping.loop_closure import LoopCloser, LoopClosure, LoopClosureConfig
from repro.mapping.pose_graph import PoseGraph, PoseGraphConfig
from repro.mapping.voxel_map import VoxelMap, VoxelMapConfig
from repro.profiling.timer import StageProfiler
from repro.registration.health import HealthConfig, assess_registration
from repro.registration.odometry import RecoveryConfig, StreamingOdometry
from repro.registration.pipeline import Pipeline, RegistrationResult
from repro.telemetry import NULL_TRACER

__all__ = ["MapperConfig", "MappingStats", "StreamingMapper"]


@dataclass(frozen=True)
class MapperConfig:
    """Every knob of the SLAM subsystem, grouped by component.

    The failure-aware knobs (both ``None`` by default — clean behavior
    is bit-identical to the health-unaware mapper): ``recovery``
    enables the odometry front end's health assessment + recovery
    ladder, and frames whose pair ended unhealthy/bridged produce
    *quarantined* keyframes that never anchor loop closures.
    ``closure_health`` adds a health gate on top of the loop closer's
    own verification thresholds: a verified closure whose registration
    is degenerate (corridor geometry) or otherwise unhealthy is
    rejected — and counted — instead of entering the pose graph.
    Robust kernels / switchable loop constraints are configured on
    ``pose_graph`` (see
    :class:`~repro.mapping.pose_graph.PoseGraphConfig`).
    """

    keyframes: KeyframeConfig = field(default_factory=KeyframeConfig)
    loop_closure: LoopClosureConfig = field(default_factory=LoopClosureConfig)
    pose_graph: PoseGraphConfig = field(default_factory=PoseGraphConfig)
    voxel_map: VoxelMapConfig = field(default_factory=VoxelMapConfig)
    enable_loop_closure: bool = True
    loop_edge_weight: float = 1.0
    recovery: RecoveryConfig | None = None
    closure_health: HealthConfig | None = None


@dataclass
class MappingStats:
    """Work counters for one mapping run.

    The map's own size lives on the map (``StreamingMapper.map.n_points``
    and ``.n_voxels``), read when it is needed.
    """

    n_frames: int = 0
    n_keyframes: int = 0
    n_loop_candidates: int = 0
    n_loop_verifications: int = 0
    n_loop_closures: int = 0
    n_optimizations: int = 0
    optimization_iterations: int = 0
    n_reanchored: int = 0
    n_quarantined_keyframes: int = 0
    n_rejected_closures: int = 0
    loop_seconds: float = 0.0
    optimize_seconds: float = 0.0
    reanchor_seconds: float = 0.0

    def summary(self) -> str:
        health = ""
        if self.n_quarantined_keyframes or self.n_rejected_closures:
            health = (
                f" ({self.n_quarantined_keyframes} quarantined keyframe(s), "
                f"{self.n_rejected_closures} health-rejected closure(s))"
            )
        return (
            f"{self.n_frames} frames -> {self.n_keyframes} keyframes, "
            f"{self.n_loop_closures} loop closure(s) from "
            f"{self.n_loop_candidates} candidate(s){health}, "
            f"{self.n_optimizations} optimization(s) "
            f"({self.optimization_iterations} GN iterations, "
            f"{self.optimize_seconds:.2f}s solve / "
            f"{self.reanchor_seconds:.2f}s re-anchor)"
        )


class StreamingMapper:
    """Streaming SLAM: ingest frames one at a time, keep a global map.

    Usage::

        mapper = StreamingMapper(pipeline)
        for frame in frames:
            mapper.push(frame)
        poses = mapper.trajectory()     # loop-corrected absolute poses
        cloud = mapper.global_map()     # fused voxel map as a PointCloud
        print(mapper.stats.summary())
    """

    def __init__(
        self,
        pipeline: Pipeline,
        config: MapperConfig | None = None,
        seed_with_previous: bool = True,
        tracer=None,
    ):
        self.pipeline = pipeline
        self.config = config or MapperConfig()
        # Optional repro.telemetry.Tracer.  Threads through the odometry
        # engine (per-pair spans) and the loop-closure profiler (stage
        # spans under verify), and adds the mapper's own structural
        # spans: frame -> keyframe -> loop_closure/verify ->
        # pose_graph.optimize/re_anchor.
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.odometry = StreamingOdometry(
            pipeline,
            seed_with_previous=seed_with_previous,
            tracer=tracer,
            recovery=self.config.recovery,
        )
        self.policy = KeyframePolicy(self.config.keyframes)
        self.closer = LoopCloser(pipeline, self.config.loop_closure)
        self.graph = PoseGraph()
        self.map = VoxelMap(self.config.voxel_map)
        self.keyframes: list[Keyframe] = []
        self.loop_closures: list[LoopClosure] = []
        self.stats = MappingStats()
        self.loop_profiler = StageProfiler(tracer=tracer)
        # Open-loop chained odometry poses, one per frame; element k is
        # built exactly like metrics.trajectory_from_relative does, so
        # the unoptimized trajectory stays bit-identical to the
        # streaming-odometry driver's.
        self._odom_poses: list[np.ndarray] = []
        # Current best keyframe pose estimates (pose-graph nodes).
        self._kf_poses: list[np.ndarray] = []
        # Per frame: (reference keyframe id, relative transform from the
        # keyframe to the frame; None for the keyframe itself).
        self._anchors: list[tuple[int, np.ndarray | None]] = []
        self._optimized = False
        # Edges already seen by the optimizer; everything past this
        # index is handed to the next optimize() call as `new_edges`
        # so the back end can run its incremental path.
        self._n_optimized_edges = 0

    # ------------------------------------------------------------------
    # Ingestion.
    # ------------------------------------------------------------------

    @property
    def n_frames(self) -> int:
        return len(self._odom_poses)

    def push(self, frame: PointCloud) -> RegistrationResult | None:
        """Feed the next frame through odometry, keyframing, and closure.

        Returns the frame-to-frame :class:`RegistrationResult` (``None``
        for the very first frame), exactly like the odometry engine.
        """
        with self.tracer.span("frame", index=self.n_frames):
            result = self.odometry.push(frame)
            self.stats.n_frames += 1

            if result is None:
                self._odom_poses.append(se3.identity())
            else:
                self._odom_poses.append(
                    se3.compose(self._odom_poses[-1], result.transformation)
                )
            odom_pose = self._odom_poses[-1]
            frame_index = len(self._odom_poses) - 1

            # With the recovery ladder active, a frame whose pair ended
            # unhealthy (bridged by the motion model or simply beyond
            # saving) taints any keyframe built on it.
            degraded = False
            if result is not None and self.config.recovery is not None:
                health = self.odometry.stats.pair_health[-1]
                degraded = health is not None and not health.healthy

            last = self.keyframes[-1] if self.keyframes else None
            if self.policy.is_keyframe(
                None if last is None else last.odometry_pose, odom_pose
            ):
                self._add_keyframe(frame_index, odom_pose, quarantined=degraded)
            else:
                relative = se3.compose(
                    se3.invert(last.odometry_pose), odom_pose
                )
                self._anchors.append((last.index, relative))
            return result

    def _add_keyframe(
        self, frame_index: int, odom_pose: np.ndarray, quarantined: bool = False
    ) -> None:
        state = self.odometry.target_state
        keyframe = Keyframe(
            index=len(self.keyframes),
            frame_index=frame_index,
            odometry_pose=odom_pose,
            state=state,
            quarantined=quarantined,
        )
        self.tracer.annotate(keyframe=keyframe.index)
        self.tracer.count("keyframes")
        if quarantined:
            self.stats.n_quarantined_keyframes += 1
            self.tracer.count("quarantined_keyframes")
        self.keyframes.append(keyframe)
        self.stats.n_keyframes += 1
        self._anchors.append((keyframe.index, None))

        if keyframe.index == 0:
            estimate = odom_pose
            self.graph.add_node(estimate)
        else:
            # The odometry edge is measured in the drift frame (pure
            # chained odometry); the node's initial estimate rides the
            # previous keyframe's *optimized* pose instead, so closing
            # a second loop starts from the best trajectory so far.
            previous = self.keyframes[-2]
            odometry_edge = se3.compose(
                se3.invert(previous.odometry_pose), odom_pose
            )
            estimate = se3.compose(self._kf_poses[previous.index], odometry_edge)
            self.graph.add_node(estimate)
            self.graph.add_edge(
                previous.index, keyframe.index, odometry_edge, kind="odometry"
            )
        self._kf_poses.append(estimate)
        self.map.insert(keyframe.index, state.cloud.points, estimate)

        # A quarantined keyframe never anchors closures — not even as
        # the closing side (its own pose estimate is the suspect part).
        if self.config.enable_loop_closure and not keyframe.quarantined:
            self._close_loops(keyframe)

    def _close_loops(self, keyframe: Keyframe) -> None:
        tracer = self.tracer
        start = time.perf_counter()
        closed = False
        with tracer.span("loop_closure", keyframe=keyframe.index):
            candidates = self.closer.candidates(
                self.keyframes, self._kf_poses, keyframe.index
            )
            tracer.annotate(n_candidates=len(candidates))
            tracer.count("loop_candidates", len(candidates))
            self.stats.n_loop_candidates += len(candidates)
            for candidate in candidates:
                target = self.keyframes[candidate]
                estimated_relative = se3.compose(
                    se3.invert(self._kf_poses[target.index]),
                    self._kf_poses[keyframe.index],
                )
                self.stats.n_loop_verifications += 1
                tracer.count("loop_verifications")
                with tracer.span("verify", target=target.index):
                    closure = self.closer.verify(
                        keyframe,
                        target,
                        estimated_relative,
                        profiler=self.loop_profiler,
                    )
                    tracer.annotate(accepted=closure is not None)
                if closure is None:
                    continue
                if self.config.closure_health is not None:
                    closure_health = assess_registration(
                        closure.result,
                        self.config.closure_health,
                        prior=estimated_relative,
                    )
                    if not closure_health.healthy:
                        self.stats.n_rejected_closures += 1
                        tracer.count("loop_rejected")
                        tracer.annotate(
                            rejected=",".join(closure_health.reasons)
                        )
                        continue
                self.loop_closures.append(closure)
                self.stats.n_loop_closures += 1
                tracer.count("loop_closures")
                self.graph.add_edge(
                    closure.target_index,
                    closure.source_index,
                    closure.relative,
                    weight=self.config.loop_edge_weight,
                    kind="loop",
                )
                closed = True
        self.stats.loop_seconds += time.perf_counter() - start
        if closed:
            self._optimize()

    def _optimize(self) -> None:
        tracer = self.tracer
        start = time.perf_counter()
        new_edges = list(
            range(self._n_optimized_edges, len(self.graph.edges))
        )
        with tracer.span(
            "pose_graph.optimize",
            n_nodes=len(self.graph.nodes),
            n_edges=len(self.graph.edges),
            n_new_edges=len(new_edges),
        ):
            result = self.graph.optimize(
                self.config.pose_graph, new_edges=new_edges
            )
            tracer.annotate(
                mode=result.mode,
                n_active_nodes=result.n_active_nodes,
                iterations=result.iterations,
                converged=result.converged,
            )
            tracer.count("optimizations")
            tracer.count("gn_iterations", result.iterations)
        self._n_optimized_edges = len(self.graph.edges)
        self._kf_poses = [np.array(pose) for pose in result.poses]
        self.stats.n_optimizations += 1
        self.stats.optimization_iterations += result.iterations
        self.stats.optimize_seconds += time.perf_counter() - start
        # Map maintenance is not solver time: account it separately so
        # back-end speedups are attributed honestly.
        start = time.perf_counter()
        with tracer.span("re_anchor"):
            n_reanchored = self.map.re_anchor(dict(enumerate(self._kf_poses)))
            tracer.annotate(n_reanchored=n_reanchored)
            tracer.count("reanchored_voxels", n_reanchored)
        self.stats.n_reanchored += n_reanchored
        self.stats.reanchor_seconds += time.perf_counter() - start
        self._optimized = True

    # ------------------------------------------------------------------
    # Outputs.
    # ------------------------------------------------------------------

    def keyframe_poses(self) -> list[np.ndarray]:
        """Current best absolute pose per keyframe."""
        return [pose.copy() for pose in self._kf_poses]

    def trajectory(self) -> list[np.ndarray]:
        """Current best absolute pose per ingested frame.

        Until a loop closure triggers optimization this is the chained
        open-loop odometry, bit-identical to
        :func:`~repro.registration.odometry.run_odometry`'s trajectory
        over the same frames.  Afterwards every frame rides
        its reference keyframe's optimized pose.
        """
        if not self._optimized:
            return [pose.copy() for pose in self._odom_poses]
        poses = []
        for keyframe_id, relative in self._anchors:
            anchor = self._kf_poses[keyframe_id]
            if relative is None:
                poses.append(anchor.copy())
            else:
                poses.append(se3.compose(anchor, relative))
        return poses

    def global_map(self) -> PointCloud:
        """The fused global voxel map as a point cloud (with counts)."""
        return self.map.to_cloud()
