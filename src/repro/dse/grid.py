"""Parametric design-space grids (paper Sec. 3.2).

The paper's DSE sweeps both *algorithmic* choices (which detector,
which descriptor, ...) and *parametric* choices within an algorithm
(search radii, thresholds, iteration budgets — Table 1's "Key
Parameters" row).  :func:`parameter_grid` expands a compact sweep
specification into named pipeline configurations ready for
:func:`repro.dse.explore`, so a Fig. 3-style scatter can be produced
over any slice of the space.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from repro.registration.correspondence import KPCEConfig, RPCEConfig
from repro.registration.descriptors import DescriptorConfig
from repro.registration.icp import ICPConfig
from repro.registration.keypoints import KeypointConfig
from repro.registration.normals import NormalEstimationConfig
from repro.registration.pipeline import PipelineConfig
from repro.registration.rejection import RejectionConfig
from repro.registration.search import SearchConfig

__all__ = [
    "SweepSpec",
    "parameter_grid",
    "default_sweep",
    "fingerprint_groups",
]

# The knobs a sweep specification may set, mapped to builders.  Each
# value list entry is substituted into the base config.
_KNOWN_KNOBS = (
    "normal_method",
    "normal_radius",
    "keypoint_method",
    "descriptor_method",
    "descriptor_radius",
    "kpce_reciprocal",
    "rejection_method",
    "icp_metric",
    "icp_solver",
    "icp_max_iterations",
    "icp_max_distance",
    "search_backend",
    "search_leaf_size",
)


class SweepSpec(dict):
    """A mapping of knob name -> list of values to sweep.

    Unknown knob names are rejected eagerly so typos do not silently
    produce an unswept axis.
    """

    def __init__(self, **knobs):
        for name in knobs:
            if name not in _KNOWN_KNOBS:
                raise ValueError(
                    f"unknown sweep knob {name!r}; known: {_KNOWN_KNOBS}"
                )
            if not knobs[name]:
                raise ValueError(f"knob {name!r} has no values")
        super().__init__(**knobs)


def _build_config(assignment: dict) -> PipelineConfig:
    """Materialize one grid point into a PipelineConfig."""
    normals = NormalEstimationConfig(
        method=assignment.get("normal_method", "plane_svd"),
        radius=assignment.get("normal_radius", 0.5),
    )
    keypoints_method = assignment.get("keypoint_method", "uniform")
    keypoint_params = {
        "uniform": {"voxel_size": 3.0},
        "harris": {"radius": 1.0, "threshold": 1e-5},
        "narf": {"support_size": 2.0},
        "sift": {"min_scale": 0.4, "n_octaves": 2, "scales_per_octave": 2},
    }[keypoints_method]
    descriptor = DescriptorConfig(
        method=assignment.get("descriptor_method", "fpfh"),
        radius=assignment.get("descriptor_radius", 1.0),
    )
    kpce = KPCEConfig(reciprocal=assignment.get("kpce_reciprocal", True))
    rejection = RejectionConfig(
        method=assignment.get("rejection_method", "ransac"),
        ransac_threshold=0.6,
        ransac_iterations=150,
    )
    icp = ICPConfig(
        rpce=RPCEConfig(
            max_distance=assignment.get("icp_max_distance", 2.0)
        ),
        error_metric=assignment.get("icp_metric", "point_to_point"),
        solver=assignment.get("icp_solver", "svd"),
        max_iterations=assignment.get("icp_max_iterations", 20),
    )
    search = SearchConfig(
        backend=assignment.get("search_backend", "twostage"),
        leaf_size=assignment.get("search_leaf_size", 64),
    )
    return PipelineConfig(
        normals=normals,
        keypoints=KeypointConfig(method=keypoints_method, params=keypoint_params),
        descriptor=descriptor,
        kpce=kpce,
        rejection=rejection,
        icp=icp,
        search=search,
    )


def parameter_grid(spec: SweepSpec) -> Iterator[tuple[str, PipelineConfig]]:
    """Yield (name, config) for the cartesian product of the sweep.

    Names encode the assignment (``nr=0.3|im=10``-style) so DSE results
    remain traceable to their knob values.
    """
    knob_names = sorted(spec)
    value_lists = [spec[name] for name in knob_names]
    short = {
        "normal_method": "nm",
        "normal_radius": "nr",
        "keypoint_method": "kp",
        "descriptor_method": "dm",
        "descriptor_radius": "dr",
        "kpce_reciprocal": "rc",
        "rejection_method": "rj",
        "icp_metric": "em",
        "icp_solver": "sv",
        "icp_max_iterations": "im",
        "icp_max_distance": "md",
        "search_backend": "sb",
        "search_leaf_size": "ls",
    }
    for values in itertools.product(*value_lists):
        assignment = dict(zip(knob_names, values))
        name = "|".join(
            f"{short[k]}={assignment[k]}" for k in knob_names
        )
        yield name, _build_config(assignment)


def fingerprint_groups(
    configs: dict[str, PipelineConfig],
) -> dict[tuple, dict[str, PipelineConfig]]:
    """Group named configurations by front-end fingerprint.

    Grid points that differ only in pairwise knobs (KPCE, rejection,
    ICP) share the per-frame preprocessing — tree build, normals,
    keypoints, descriptors — so the explorer evaluates each group with
    one shared set of :class:`~repro.registration.pipeline.FrameState`
    artifacts.  Insertion order is preserved within and across groups,
    keeping reports deterministic.
    """
    groups: dict[tuple, dict[str, PipelineConfig]] = {}
    for name, config in configs.items():
        groups.setdefault(config.frontend_fingerprint(), {})[name] = config
    return groups


def default_sweep() -> SweepSpec:
    """A compact 2x2x2 slice of Table 1 used by tests and examples."""
    return SweepSpec(
        normal_radius=[0.3, 0.6],
        icp_metric=["point_to_point", "point_to_plane"],
        icp_max_iterations=[8, 20],
    )
