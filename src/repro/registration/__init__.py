"""The configurable point cloud registration pipeline (paper Fig. 2).

Public API:

* :class:`Pipeline` / :class:`PipelineConfig` — the end-to-end
  registration pipeline with every Table-1 knob;
* :func:`design_point` — the DP1-DP8 Pareto-optimal configurations;
* the individual stage functions for composing custom pipelines
  (``estimate_normals``, ``detect_keypoints``, ``compute_descriptors``,
  ``estimate_feature_correspondences``, ``reject_correspondences``,
  ``icp``, ...).
"""

from repro.registration.correspondence import (
    Correspondences,
    KPCEConfig,
    RPCEConfig,
    estimate_feature_correspondences,
    estimate_point_correspondences,
)
from repro.registration.descriptors import DescriptorConfig, compute_descriptors
from repro.registration.design_points import (
    DESIGN_POINT_NAMES,
    approximate_variant,
    design_point,
    dp4_performance,
    dp7_accuracy,
)
from repro.registration.error_injection import (
    IdentityInjector,
    KthNeighborInjector,
    ShellRadiusInjector,
)
from repro.registration.estimation import (
    kabsch,
    levenberg_marquardt,
    point_to_plane,
)
from repro.registration.health import (
    HealthConfig,
    RegistrationHealth,
    assess_registration,
    translation_observability,
)
from repro.registration.icp import ICPConfig, ICPResult, icp
from repro.registration.keypoints import KeypointConfig, detect_keypoints
from repro.registration.normals import NormalEstimationConfig, estimate_normals
from repro.registration.odometry import (
    OdometryResult,
    OdometryStats,
    RecoveryConfig,
    StreamingOdometry,
    run_odometry,
)
from repro.registration.pipeline import (
    STAGE_NAMES,
    FrameState,
    Pipeline,
    PipelineConfig,
    RegistrationResult,
)
from repro.registration.rejection import (
    RejectionConfig,
    reject_correspondences,
    reject_ransac,
)
from repro.registration.search import NeighborSearcher, SearchConfig, build_searcher

__all__ = [
    "Pipeline",
    "PipelineConfig",
    "RegistrationResult",
    "FrameState",
    "STAGE_NAMES",
    "DESIGN_POINT_NAMES",
    "design_point",
    "dp4_performance",
    "dp7_accuracy",
    "approximate_variant",
    "NormalEstimationConfig",
    "estimate_normals",
    "KeypointConfig",
    "detect_keypoints",
    "DescriptorConfig",
    "compute_descriptors",
    "KPCEConfig",
    "RPCEConfig",
    "Correspondences",
    "estimate_feature_correspondences",
    "estimate_point_correspondences",
    "RejectionConfig",
    "reject_correspondences",
    "reject_ransac",
    "ICPConfig",
    "ICPResult",
    "icp",
    "HealthConfig",
    "RegistrationHealth",
    "assess_registration",
    "translation_observability",
    "RecoveryConfig",
    "OdometryStats",
    "kabsch",
    "point_to_plane",
    "levenberg_marquardt",
    "SearchConfig",
    "NeighborSearcher",
    "build_searcher",
    "KthNeighborInjector",
    "ShellRadiusInjector",
    "IdentityInjector",
    "OdometryResult",
    "run_odometry",
    "StreamingOdometry",
]
