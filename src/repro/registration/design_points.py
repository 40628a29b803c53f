"""The Pareto-optimal design points DP1-DP8 (paper Sec. 3.2, Fig. 3/4).

The paper's design-space exploration identifies eight Pareto-optimal
configurations of the registration pipeline, spanning the spectrum from
performance-oriented (DP4: tight radii, cheap algorithms) to
accuracy-oriented (DP7: wide radii, RANSAC, point-to-plane).  The exact
KITTI-tuned parameter values are not published; these configurations
follow the paper's qualitative descriptions — e.g. Sec. 6.3: "the
Normal Estimation stage in DP4 uses a radius of 0.30 while using a
radius of 0.75 in DP7" — and span the same knob axes (Table 1) so the
DSE and bottleneck analyses reproduce the paper's *shape*.

Use :func:`design_point` to get a fresh config, or iterate
``DESIGN_POINT_NAMES``.  The evaluation section's two featured points
are aliased as :func:`dp4_performance` and :func:`dp7_accuracy`.
"""

from __future__ import annotations

from repro.core.approx import ApproximateSearchConfig
from repro.registration.correspondence import KPCEConfig, RPCEConfig
from repro.registration.descriptors import DescriptorConfig
from repro.registration.icp import ICPConfig
from repro.registration.keypoints import KeypointConfig
from repro.registration.normals import NormalEstimationConfig
from repro.registration.pipeline import PipelineConfig
from repro.registration.rejection import RejectionConfig
from repro.registration.search import SearchConfig

__all__ = [
    "DESIGN_POINT_NAMES",
    "design_point",
    "dp4_performance",
    "dp7_accuracy",
]

DESIGN_POINT_NAMES = tuple(f"DP{i}" for i in range(1, 9))


def design_point(name: str, scale: float = 1.0) -> PipelineConfig:
    """Return the named design point's pipeline configuration.

    ``scale`` multiplies all metric radii/thresholds, letting the same
    design points run on scenes of different point density (tests use
    scaled-down synthetic frames).
    """
    if name not in DESIGN_POINT_NAMES:
        raise ValueError(f"unknown design point {name!r}; use one of {DESIGN_POINT_NAMES}")
    factory = _FACTORIES[name]
    return factory(scale)


def dp4_performance(scale: float = 1.0) -> PipelineConfig:
    """DP4 — the performance-oriented point featured in Sec. 6 (Fig. 11b)."""
    return design_point("DP4", scale)


def dp7_accuracy(scale: float = 1.0) -> PipelineConfig:
    """DP7 — the accuracy-oriented point featured in Sec. 6 (Fig. 11a)."""
    return design_point("DP7", scale)


def _base_icp(
    metric: str,
    solver: str = "svd",
    max_iterations: int = 25,
    max_distance: float = 2.0,
    rpce_method: str = "nearest",
) -> ICPConfig:
    return ICPConfig(
        rpce=RPCEConfig(method=rpce_method, max_distance=max_distance),
        error_metric=metric,
        solver=solver,
        max_iterations=max_iterations,
        transformation_epsilon=1e-5,
        fitness_epsilon=1e-6,
    )


def _dp1(scale: float) -> PipelineConfig:
    """Fastest: uniform keypoints, FPFH, threshold rejection, few iters."""
    return PipelineConfig(
        normals=NormalEstimationConfig(method="plane_svd", radius=0.30 * scale),
        keypoints=KeypointConfig(method="uniform", params={"voxel_size": 4.0 * scale}),
        descriptor=DescriptorConfig(method="fpfh", radius=0.8 * scale),
        kpce=KPCEConfig(reciprocal=False),
        rejection=RejectionConfig(
            method="threshold", distance_threshold=None, one_to_one=True
        ),
        icp=_base_icp("point_to_point", max_iterations=10, max_distance=1.5 * scale),
        search=SearchConfig(),
    )


def _dp2(scale: float) -> PipelineConfig:
    """Fast: Harris keypoints, FPFH, threshold rejection."""
    return PipelineConfig(
        normals=NormalEstimationConfig(method="plane_svd", radius=0.30 * scale),
        keypoints=KeypointConfig(
            method="harris", params={"radius": 1.0 * scale, "threshold": 5e-5}
        ),
        descriptor=DescriptorConfig(method="fpfh", radius=1.0 * scale),
        kpce=KPCEConfig(reciprocal=False),
        rejection=RejectionConfig(method="threshold", one_to_one=True),
        icp=_base_icp("point_to_point", max_iterations=15, max_distance=1.5 * scale),
        search=SearchConfig(),
    )


def _dp3(scale: float) -> PipelineConfig:
    """Balanced: NARF keypoints, FPFH, RANSAC."""
    return PipelineConfig(
        normals=NormalEstimationConfig(method="plane_svd", radius=0.40 * scale),
        keypoints=KeypointConfig(
            method="narf", params={"support_size": 2.0 * scale}
        ),
        descriptor=DescriptorConfig(method="fpfh", radius=1.0 * scale),
        kpce=KPCEConfig(reciprocal=True),
        rejection=RejectionConfig(
            method="ransac", ransac_threshold=0.8 * scale, ransac_iterations=150
        ),
        icp=_base_icp("point_to_point", max_iterations=20, max_distance=2.0 * scale),
        search=SearchConfig(),
    )


def _dp4(scale: float) -> PipelineConfig:
    """Performance-oriented featured point: tight radii (NE 0.30)."""
    return PipelineConfig(
        normals=NormalEstimationConfig(method="plane_svd", radius=0.30 * scale),
        keypoints=KeypointConfig(
            method="harris", params={"radius": 1.0 * scale, "threshold": 5e-5}
        ),
        descriptor=DescriptorConfig(method="fpfh", radius=1.0 * scale),
        kpce=KPCEConfig(reciprocal=True),
        rejection=RejectionConfig(
            method="ransac", ransac_threshold=0.6 * scale, ransac_iterations=200
        ),
        icp=_base_icp("point_to_point", max_iterations=20, max_distance=1.5 * scale),
        search=SearchConfig(),
    )


def _dp5(scale: float) -> PipelineConfig:
    """Balanced+: SIFT keypoints, FPFH, RANSAC, point-to-plane."""
    return PipelineConfig(
        normals=NormalEstimationConfig(method="plane_svd", radius=0.50 * scale),
        keypoints=KeypointConfig(
            method="sift",
            params={"min_scale": 0.4 * scale, "n_octaves": 2, "scales_per_octave": 2},
        ),
        descriptor=DescriptorConfig(method="fpfh", radius=1.2 * scale),
        kpce=KPCEConfig(reciprocal=True),
        rejection=RejectionConfig(
            method="ransac", ransac_threshold=0.6 * scale, ransac_iterations=200
        ),
        icp=_base_icp("point_to_plane", max_iterations=25, max_distance=2.0 * scale),
        search=SearchConfig(),
    )


def _dp6(scale: float) -> PipelineConfig:
    """Accuracy-leaning: SHOT descriptors, RANSAC, point-to-plane."""
    return PipelineConfig(
        normals=NormalEstimationConfig(method="plane_svd", radius=0.60 * scale),
        keypoints=KeypointConfig(
            method="harris", params={"radius": 1.2 * scale, "threshold": 2e-5}
        ),
        descriptor=DescriptorConfig(method="shot", radius=1.5 * scale),
        kpce=KPCEConfig(reciprocal=True, backend="bruteforce"),
        rejection=RejectionConfig(
            method="ransac", ransac_threshold=0.5 * scale, ransac_iterations=300
        ),
        icp=_base_icp("point_to_plane", max_iterations=30, max_distance=2.0 * scale),
        search=SearchConfig(),
    )


def _dp7(scale: float) -> PipelineConfig:
    """Accuracy-oriented featured point: wide radii (NE 0.75)."""
    return PipelineConfig(
        normals=NormalEstimationConfig(method="plane_svd", radius=0.75 * scale),
        keypoints=KeypointConfig(
            method="harris", params={"radius": 1.2 * scale, "threshold": 2e-5}
        ),
        descriptor=DescriptorConfig(method="fpfh", radius=1.5 * scale),
        kpce=KPCEConfig(reciprocal=True),
        rejection=RejectionConfig(
            method="ransac", ransac_threshold=0.5 * scale, ransac_iterations=300
        ),
        icp=_base_icp("point_to_plane", max_iterations=30, max_distance=2.5 * scale),
        search=SearchConfig(),
    )


def _dp8(scale: float) -> PipelineConfig:
    """Most accurate/expensive: AreaWeighted normals, widest radii, LM."""
    return PipelineConfig(
        normals=NormalEstimationConfig(method="area_weighted", radius=0.90 * scale),
        keypoints=KeypointConfig(
            method="harris", params={"radius": 1.5 * scale, "threshold": 1e-5}
        ),
        descriptor=DescriptorConfig(method="fpfh", radius=1.8 * scale),
        kpce=KPCEConfig(reciprocal=True),
        rejection=RejectionConfig(
            method="ransac", ransac_threshold=0.4 * scale, ransac_iterations=400
        ),
        icp=_base_icp(
            "point_to_plane", solver="lm", max_iterations=35, max_distance=2.5 * scale
        ),
        search=SearchConfig(),
    )


_FACTORIES = {
    "DP1": _dp1,
    "DP2": _dp2,
    "DP3": _dp3,
    "DP4": _dp4,
    "DP5": _dp5,
    "DP6": _dp6,
    "DP7": _dp7,
    "DP8": _dp8,
}


def approximate_variant(
    config: PipelineConfig,
    leaf_size: int = 128,
    approx: ApproximateSearchConfig | None = None,
) -> PipelineConfig:
    """Clone a design point with approximate search on the dense stages.

    Uses the paper's Sec. 6.3 settings by default: leaf sets ~128
    (top-tree height 10 on KITTI-sized frames), NN threshold 1.2 m and
    radius threshold 40 %.
    """
    clone = PipelineConfig(
        normals=config.normals,
        keypoints=config.keypoints,
        descriptor=config.descriptor,
        kpce=config.kpce,
        rejection=config.rejection,
        icp=config.icp,
        search=SearchConfig(
            backend="approximate",
            leaf_size=leaf_size,
            approx=approx or ApproximateSearchConfig(),
        ),
        injectors=dict(config.injectors),
        voxel_downsample=config.voxel_downsample,
        skip_initial_estimation=config.skip_initial_estimation,
    )
    return clone
