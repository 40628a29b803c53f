"""Loop-closure detection and verification.

Candidates are found by **pose proximity**: keyframes whose estimated
position lies within a search radius of the current keyframe, excluding
the most recent ones (the previous few keyframes are always nearby —
that is odometry, not a loop).  Each candidate is then verified by
registering the two keyframes' cached
:class:`~repro.registration.pipeline.FrameState` artifacts through the
existing :meth:`~repro.registration.pipeline.Pipeline.match` path, so
verification pays zero re-preprocessing.  The estimated relative pose
(which candidate detection just proved is small) seeds ICP directly,
so verification never runs the initial-estimation phase.

A verified closure yields the measured relative transform between two
far-apart trajectory points; the pose graph turns that single
measurement into a correction of the whole drift-contaminated interior.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.geometry import se3
from repro.mapping.keyframes import Keyframe
from repro.profiling.timer import StageProfiler
from repro.registration.pipeline import Pipeline, RegistrationResult

__all__ = ["LoopClosureConfig", "LoopClosure", "LoopCloser"]


@dataclass(frozen=True)
class LoopClosureConfig:
    """Candidate gating and verification thresholds.

    ``min_keyframe_gap`` keyframes must separate the pair (excluding
    recency); candidates must lie within ``max_distance`` meters of the
    current pose estimate, nearest first, at most ``max_candidates``
    verified per keyframe.  A verification passes when ICP succeeds
    with at least ``min_correspondences`` matches and RMSE at most
    ``max_rmse``, and the measured transform disagrees with the
    pose-graph estimate by no more than ``max_correction_translation``
    meters / ``max_correction_rotation_deg`` degrees (drift is the
    signal, but a wild disagreement is a false positive).

    Verification seeds ICP with the estimated relative pose — candidate
    detection already established it is within the search radius, which
    is strictly more informative than starting from identity.
    ``icp_max_iterations``, when set, raises the fine-tuning
    iteration cap for verification only: a loop pair starts a whole
    drift further from alignment than an odometry pair, so the
    pipeline's per-pair budget is often one convergence notch too low.
    """

    min_keyframe_gap: int = 4
    max_distance: float = 4.0
    max_candidates: int = 2
    min_correspondences: int = 25
    max_rmse: float = 1.0
    max_correction_translation: float = 3.0
    max_correction_rotation_deg: float = 30.0
    icp_max_iterations: int | None = 50


@dataclass
class LoopClosure:
    """One verified loop: edge endpoints, measurement, and evidence.

    ``relative`` maps the *newer* keyframe's coordinates into the
    *older* keyframe's frame — i.e. the pose-graph measurement for the
    edge ``(older, newer)``.
    """

    source_index: int
    target_index: int
    relative: np.ndarray
    result: RegistrationResult


class LoopCloser:
    """Finds and verifies loop closures over a keyframe history."""

    def __init__(self, pipeline: Pipeline, config: LoopClosureConfig | None = None):
        self.pipeline = pipeline
        self.config = config or LoopClosureConfig()
        self._verification_pipeline: Pipeline | None = None

    def _matcher(self) -> Pipeline:
        """The pipeline verification matches through.

        Identical to the odometry pipeline except for the optional
        ICP iteration-cap raise; front-end configuration is untouched,
        so the cached ``FrameState`` artifacts remain exactly valid.
        """
        if self.config.icp_max_iterations is None:
            return self.pipeline
        if self._verification_pipeline is None:
            base = self.pipeline.config
            self._verification_pipeline = Pipeline(
                replace(
                    base,
                    icp=replace(
                        base.icp, max_iterations=self.config.icp_max_iterations
                    ),
                )
            )
        return self._verification_pipeline

    def candidates(
        self,
        keyframes: list[Keyframe],
        poses: list[np.ndarray],
        current: int,
    ) -> list[int]:
        """Older keyframe indices worth verifying against ``current``.

        ``poses`` are the current best pose estimates per keyframe.
        Candidates are sorted nearest-first and truncated to
        ``max_candidates``.
        """
        position = se3.translation_part(poses[current])
        scored: list[tuple[float, int]] = []
        for keyframe in keyframes:
            if keyframe.quarantined:
                # A quarantined keyframe's pose is a bridge/unhealthy
                # estimate; a closure measured against it would anchor
                # the graph to a position nobody verified.
                continue
            if keyframe.index >= current - self.config.min_keyframe_gap:
                continue
            distance = float(
                np.linalg.norm(
                    se3.translation_part(poses[keyframe.index]) - position
                )
            )
            if distance <= self.config.max_distance:
                scored.append((distance, keyframe.index))
        scored.sort()
        return [index for _, index in scored[: self.config.max_candidates]]

    def verify(
        self,
        source: Keyframe,
        target: Keyframe,
        estimated_relative: np.ndarray,
        profiler: StageProfiler | None = None,
    ) -> LoopClosure | None:
        """Register ``source`` (newer) against ``target`` (older).

        Reuses both keyframes' cached ``FrameState``, with ICP seeded by
        ``estimated_relative``.  Returns the verified closure or ``None``.
        """
        config = self.config
        result = self._matcher().match(
            source.state,
            target.state,
            initial=np.array(estimated_relative, dtype=np.float64),
            profiler=profiler,
        )

        if not (result.success and result.icp.converged):
            return None
        if result.icp.n_correspondences < config.min_correspondences:
            return None
        if result.icp.rmse > config.max_rmse:
            return None
        rotation, translation = se3.transform_distance(
            estimated_relative, result.transformation
        )
        if (
            translation > config.max_correction_translation
            or np.degrees(rotation) > config.max_correction_rotation_deg
        ):
            return None
        return LoopClosure(
            source_index=source.index,
            target_index=target.index,
            relative=result.transformation,
            result=result,
        )
