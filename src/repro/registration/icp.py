"""Iterative Closest Point fine-tuning (paper Sec. 3.1, phase 2).

The fine-tuning phase iterates between Raw-Point Correspondence
Estimation (RPCE — every source point finds its target mate in 3D) and
Transformation Estimation (solve for the transform minimizing the error
metric), until convergence.  The Table-1 knobs — error metric, solver,
convergence criteria, RPCE method and reciprocity — are all exposed via
:class:`ICPConfig`.

RPCE is the heaviest NN-search consumer in the pipeline (Fig. 4a); each
iteration issues **one batched** nearest-neighbor call over all moved
source points (see :mod:`repro.registration.search`), the software
analogue of the accelerator streaming a whole query batch through its
PE array per pass.  The source moves only slightly between iterations,
so most nearest neighbors stay the same: with ``method="nearest"`` on
the two-stage tree and no injector, each batch keeps every answer a
triangle-inequality certificate proves unchanged and searches only the
other rows (:class:`~repro.registration.search.NNReuseAnchor`).  Every
result is bit-identical to searching all rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry import se3
from repro.io.pointcloud import PointCloud
from repro.profiling.timer import StageProfiler
from repro.registration.correspondence import (
    RPCEConfig,
    estimate_point_correspondences,
)
from repro.registration.estimation import (
    kabsch,
    levenberg_marquardt,
    point_to_plane,
)
from repro.registration.keypoints.narf import RangeImage, build_range_image
from repro.registration.search import (
    NeighborSearcher,
    NNReuseAnchor,
    SearchConfig,
    build_searcher,
)

__all__ = ["ICPConfig", "ICPResult", "icp"]


@dataclass(frozen=True)
class ICPConfig:
    """Fine-tuning knobs (Table 1).

    ``error_metric``
        ``"point_to_point"`` [34] or ``"point_to_plane"`` [12]
        (the latter requires target normals).
    ``solver``
        ``"svd"`` — closed-form Kabsch for point-to-point, linearized
        least squares for point-to-plane; ``"lm"`` — Levenberg-
        Marquardt [45] for either metric.
    ``transformation_epsilon`` / ``fitness_epsilon`` / ``max_iterations``
        The convergence criteria knob: stop when the incremental
        transform magnitude, the absolute change in RMSE between
        iterations, or the iteration budget is reached.  The epsilons
        must be non-negative (0 disables a criterion; inf is valid).
    """

    rpce: RPCEConfig = field(default_factory=RPCEConfig)
    error_metric: str = "point_to_point"
    solver: str = "svd"
    max_iterations: int = 30
    transformation_epsilon: float = 1e-6
    fitness_epsilon: float = 1e-6

    def __post_init__(self):
        if self.error_metric not in ("point_to_point", "point_to_plane"):
            raise ValueError(
                "error_metric must be 'point_to_point' or 'point_to_plane'"
            )
        if self.solver not in ("svd", "lm"):
            raise ValueError("solver must be 'svd' or 'lm'")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for name in ("transformation_epsilon", "fitness_epsilon"):
            if not getattr(self, name) >= 0:  # also rejects NaN
                raise ValueError(f"{name} must be non-negative")


@dataclass
class ICPResult:
    """Outcome of the fine-tuning loop.

    ``hessian`` is the 6x6 normal-equations Gauss-Newton Hessian
    ``J^T J`` of the *final* iteration's correspondence set, in
    ``(rotation, translation)`` block order — the observability matrix
    the registration health layer inspects for degeneracy (a
    corridor-like scene leaves the unconstrained direction as a
    near-null eigenvector).  ``None`` when the loop never reached a
    solvable correspondence set.  ``matched_normals`` retains the final
    iteration's matched target normals (point-to-plane only): the raw
    per-match translation Jacobian rows, which let the health layer
    compute a *trimmed* observability statistic robust to the few junk
    normals that degenerate (collinear) neighborhoods produce.
    ``matched_residuals`` holds the final iteration's per-match
    Euclidean distances (the vector whose RMS is ``rmse``): their
    *median* is the robust alignment-quality signal — unlike the RMSE
    it ignores the far-match tail that grows with frame separation, so
    it stays comparable between ordinary pairs and pairs spanning a
    dropped frame, while broad corruption (noise, clutter) shifts it.
    """

    transformation: np.ndarray
    converged: bool
    iterations: int
    rmse: float
    n_correspondences: int
    rmse_history: list[float] = field(default_factory=list)
    hessian: np.ndarray | None = None
    matched_normals: np.ndarray | None = None
    matched_residuals: np.ndarray | None = None

    def __repr__(self) -> str:
        status = "converged" if self.converged else "not converged"
        return (
            f"ICPResult({status} after {self.iterations} iterations, "
            f"rmse={self.rmse:.4f}, pairs={self.n_correspondences})"
        )


def _normal_equations_hessian(
    points: np.ndarray, normals: np.ndarray | None = None
) -> np.ndarray:
    """``J^T J`` of one Gauss-Newton pass over matched points.

    ``(rotation, translation)`` block order.  With ``normals`` this is
    the point-to-plane system (one residual per pair); without, the
    point-to-point system (three residuals per pair).  Pure observation
    of the solve the iteration already performed — computing it never
    changes the transform.
    """
    if normals is not None:
        jacobian = np.hstack([np.cross(points, normals), normals])
        return jacobian.T @ jacobian
    n = len(points)
    rot = np.zeros((3 * n, 3))
    rot[0::3, 1] = points[:, 2]
    rot[0::3, 2] = -points[:, 1]
    rot[1::3, 0] = -points[:, 2]
    rot[1::3, 2] = points[:, 0]
    rot[2::3, 0] = points[:, 1]
    rot[2::3, 1] = -points[:, 0]
    jacobian = np.hstack([rot, np.tile(np.eye(3), (n, 1))])
    return jacobian.T @ jacobian


def icp(
    source: PointCloud,
    target: PointCloud,
    target_searcher: NeighborSearcher,
    config: ICPConfig | None = None,
    initial: np.ndarray | None = None,
    profiler: StageProfiler | None = None,
    searcher_factory=None,
    range_image: RangeImage | None = None,
) -> ICPResult:
    """Refine ``initial`` so that ``source`` aligns onto ``target``.

    ``target_searcher`` indexes ``target.points``.  When
    ``searcher_factory`` is given, it is called once per iteration to
    produce a fresh searcher (the hook the pipeline uses to reset
    approximate-search leader state per RPCE pass, matching the
    hardware's per-pass leader buffers).  ``range_image`` may supply a
    prebuilt target range image for projection RPCE — a pure function of
    the target frame, so streaming callers build it once per frame and
    reuse it across pairs; when omitted it is built here.

    Profiler stages: ``RPCE`` for correspondence search, ``Error
    Minimization`` for the solver — the names of Fig. 4a.
    """
    config = config or ICPConfig()
    current = np.array(initial if initial is not None else np.eye(4), dtype=np.float64)
    profiler = profiler or StageProfiler()

    if config.error_metric == "point_to_plane" and not target.has_normals:
        raise ValueError("point_to_plane ICP requires target normals")

    source_points = source.points
    source_normals = source.normals if source.has_normals else None
    target_points = target.points
    target_normals = target.normals if target.has_normals else None

    if config.rpce.method == "projection" and range_image is None:
        range_image = build_range_image(target)
    # Nearest-neighbor answers certified unchanged since the previous
    # iteration are kept without a search (bit-identical results).
    nn_reuse = NNReuseAnchor()

    rmse_history: list[float] = []
    previous_rmse = np.inf
    converged = False
    iterations = 0
    n_pairs = 0
    # The final iteration's matched geometry, retained so the
    # normal-equations Hessian and the per-match residuals (the health
    # layer's degeneracy and quality signals) can be computed once
    # after the loop.
    last_matched: (
        tuple[np.ndarray, np.ndarray, np.ndarray | None] | None
    ) = None

    for iteration in range(config.max_iterations):
        iterations = iteration + 1
        searcher = (
            searcher_factory() if searcher_factory is not None else target_searcher
        )
        moved = se3.apply_transform(current, source_points)
        moved_normals = None
        if source_normals is not None:
            moved_normals = source_normals @ se3.rotation_part(current).T

        with profiler.stage("RPCE"):
            source_searcher = None
            if config.rpce.reciprocal:
                # Reciprocity needs the reverse search; the moved source
                # changes every iteration, so its index is rebuilt here
                # (charged to the RPCE stage, as on the real pipeline)
                # and its queries go to the RPCE search counters.
                source_searcher = build_searcher(
                    moved, SearchConfig(), profiler, searcher.stats
                )
            correspondences = estimate_point_correspondences(
                moved,
                searcher,
                config.rpce,
                source_normals=moved_normals,
                target_range_image=range_image,
                source_searcher=source_searcher,
                nn_reuse=nn_reuse,
            )
        n_pairs = len(correspondences)
        if n_pairs < 6:
            break

        matched_source = moved[correspondences.source_indices]
        matched_target = target_points[correspondences.target_indices]

        with profiler.stage("Error Minimization"):
            if config.error_metric == "point_to_plane":
                normals = target_normals[correspondences.target_indices]
                last_matched = (matched_source, matched_target, normals)
                if config.solver == "lm":
                    delta = levenberg_marquardt(
                        matched_source, matched_target, normals
                    )
                else:
                    delta = point_to_plane(matched_source, matched_target, normals)
            else:
                last_matched = (matched_source, matched_target, None)
                if config.solver == "lm":
                    delta = levenberg_marquardt(matched_source, matched_target)
                else:
                    delta = kabsch(matched_source, matched_target)

        current = se3.compose(delta, current)
        current[:3, :3] = se3.orthonormalize_rotation(current[:3, :3])

        rmse = float(
            np.sqrt(np.mean(np.sum((matched_source - matched_target) ** 2, axis=1)))
        )
        rmse_history.append(rmse)

        rot_delta, trans_delta = se3.transform_distance(np.eye(4), delta)
        if (
            rot_delta < config.transformation_epsilon
            and trans_delta < config.transformation_epsilon
        ):
            converged = True
            break
        if abs(previous_rmse - rmse) < config.fitness_epsilon:
            converged = True
            break
        previous_rmse = rmse

    final_rmse = rmse_history[-1] if rmse_history else np.inf
    hessian = None
    matched_normals = None
    matched_residuals = None
    if last_matched is not None:
        matched_src, matched_tgt, matched_normals = last_matched
        hessian = _normal_equations_hessian(matched_src, matched_normals)
        matched_residuals = np.sqrt(
            np.sum((matched_src - matched_tgt) ** 2, axis=1)
        )
    return ICPResult(
        transformation=current,
        converged=converged,
        iterations=iterations,
        rmse=final_rmse,
        n_correspondences=n_pairs,
        rmse_history=rmse_history,
        hessian=hessian,
        matched_normals=matched_normals,
        matched_residuals=matched_residuals,
    )
