"""The reference urban_loop mapping configuration.

One registration pipeline and one mapper configuration are shared by
everything that tells the loop-closure story — ``examples/mapping.py``,
the benchmark's ``mapping_loop`` workload, the golden
``mapping_urban_loop`` regression scenario, and the acceptance tests in
``tests/mapping/`` — so the numbers they produce (and the README's
drift table) stay mutually comparable by construction rather than by
four hand-synchronized copies.  Mirrors the role
:mod:`repro.registration.design_points` plays for the paper's DP1-DP8
configurations.
"""

from __future__ import annotations

from repro.mapping.keyframes import KeyframeConfig
from repro.mapping.mapper import MapperConfig
from repro.registration.correspondence import RPCEConfig
from repro.registration.icp import ICPConfig
from repro.registration.keypoints import KeypointConfig
from repro.registration.pipeline import Pipeline, PipelineConfig

__all__ = ["urban_loop_pipeline", "urban_loop_mapper_config"]


def urban_loop_pipeline() -> Pipeline:
    """The registration pipeline of the urban_loop mapping scenario.

    Uniform keypoints over a coarse voxel grid, point-to-plane ICP with
    a modest per-pair iteration budget (loop verification raises its
    own cap via ``LoopClosureConfig.icp_max_iterations``), and a 0.8 m
    voxel downsample to keep full-circuit runs in test-suite time.
    """
    return Pipeline(
        PipelineConfig(
            keypoints=KeypointConfig(
                method="uniform", params={"voxel_size": 3.0}, min_keypoints=8
            ),
            icp=ICPConfig(
                rpce=RPCEConfig(max_distance=2.0),
                error_metric="point_to_plane",
                max_iterations=15,
            ),
            voxel_downsample=0.8,
        )
    )


def urban_loop_mapper_config(**overrides) -> MapperConfig:
    """The mapper configuration of the urban_loop mapping scenario.

    Keyframes every ~1.5 m / 20 deg — roughly every other frame of the
    48-frame two-lap circuit — with the stock loop-closure, pose-graph,
    and voxel-map defaults.  The stock
    :class:`~repro.mapping.pose_graph.PoseGraphConfig` defaults
    (``hop_radius=5``, ``escalation_factor=1.5``) are tuned so the
    sparse incremental back end reproduces this scenario's batch-solver
    trajectory exactly — the ``mapping_urban_loop`` golden holds with
    the incremental path enabled.  ``overrides`` pass through to
    :class:`~repro.mapping.mapper.MapperConfig` (e.g.
    ``enable_loop_closure=False`` for the open-loop comparison legs).
    """
    return MapperConfig(
        keyframes=KeyframeConfig(
            translation_threshold=1.5, rotation_threshold_deg=20.0
        ),
        **overrides,
    )
