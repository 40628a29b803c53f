"""Sequence odometry (paper Sec. 2.2's motivating application).

Registers consecutive frames of a sequence, chains the relative
transforms into a trajectory, and scores it with the KITTI metrics —
the accuracy methodology of the paper's evaluation (Sec. 6.1).  It
also implements the constant-velocity prior standard in LiDAR
odometry: each registration is seeded with the previous pair's motion,
which keeps ICP inside its convergence basin between frames.

:class:`StreamingOdometry` feeds frames one at a time through the
pipeline's per-frame/pairwise split: each frame is preprocessed exactly
once into a :class:`~repro.registration.pipeline.FrameState`, used as
pair ``k``'s source, then handed over as pair ``k + 1``'s target, so
the steady-state per-pair cost is one preprocess plus one match.
:func:`run_odometry` drives a whole sequence through it.  The split
only reorders computation: every pair is bit-identical to a
``Pipeline.register`` call on the raw frames with the same seed, which
``tests/registration/test_streaming.py`` checks against a chain of
such calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.geometry import metrics
from repro.geometry.metrics import SequenceErrors
from repro.io.dataset import SyntheticSequence
from repro.io.pointcloud import PointCloud
from repro.profiling.timer import StageProfiler
from repro.registration.health import (
    HealthConfig,
    RegistrationHealth,
    assess_registration,
)
from repro.registration.pipeline import (
    FrameState,
    Pipeline,
    RegistrationResult,
)
from repro.telemetry import tracer_of

__all__ = [
    "OdometryResult",
    "OdometryStats",
    "RecoveryConfig",
    "run_odometry",
    "StreamingOdometry",
]


@dataclass
class OdometryStats:
    """Per-run health/recovery bookkeeping for sequence odometry.

    Non-converged ICP pairs are always counted; with a
    :class:`RecoveryConfig` the run also records per-pair health
    verdicts and every recovery rung it climbed.
    ``pair_health``/``pair_actions`` are indexed by pair;
    ``failure_counts`` tallies
    :class:`~repro.registration.health.RegistrationHealth` reason codes
    across the run.
    """

    n_pairs: int = 0
    n_nonconverged: int = 0
    n_unhealthy: int = 0
    n_reseeded: int = 0
    n_widened: int = 0
    n_bridged: int = 0
    failure_counts: dict[str, int] = field(default_factory=dict)
    pair_health: list[RegistrationHealth | None] = field(default_factory=list)
    pair_actions: list[tuple[str, ...]] = field(default_factory=list)
    degraded_pairs: list[int] = field(default_factory=list)

    @property
    def n_recovered(self) -> int:
        """Pairs that started unhealthy but a retry rung salvaged."""
        return self.n_unhealthy - len(self.degraded_pairs)

    def snapshot(self) -> "OdometryStats":
        """An independent copy (results must not alias live state)."""
        return replace(
            self,
            failure_counts=dict(self.failure_counts),
            pair_health=list(self.pair_health),
            pair_actions=list(self.pair_actions),
            degraded_pairs=list(self.degraded_pairs),
        )

    def summary(self) -> str:
        parts = [
            f"{self.n_pairs} pairs: {self.n_nonconverged} non-converged ICP"
        ]
        if self.n_unhealthy:
            parts.append(
                f"{self.n_unhealthy} unhealthy "
                f"(reseeded {self.n_reseeded}, widened {self.n_widened}, "
                f"bridged {self.n_bridged})"
            )
        if self.failure_counts:
            reasons = ", ".join(
                f"{name} x{count}"
                for name, count in sorted(self.failure_counts.items())
            )
            parts.append(f"reasons: {reasons}")
        return "; ".join(parts)


@dataclass(frozen=True)
class RecoveryConfig:
    """The deterministic recovery ladder for unhealthy pairs.

    When a pair's :func:`~repro.registration.health.assess_registration`
    verdict fails, :class:`StreamingOdometry` escalates rung by rung,
    re-assessing after each, and accepts the first healthy attempt:

    1. *re-seed* — retry the match seeded from the constant-velocity
       motion model (skipped when the failed attempt already used that
       exact seed);
    2. *widen* — retry through a recovery pipeline with the RPCE
       correspondence distance and ICP iteration budget scaled up
       (pairwise knobs only, so cached FrameStates stay valid);
    3. *bridge* — give up on registration for this pair, substitute the
       motion-model prediction, and mark the pair degraded.

    Every rung is deterministic (no randomness, no retries with
    different seeds), so a given sequence always takes the same path.
    """

    health: HealthConfig = field(default_factory=HealthConfig)
    reseed_from_prior: bool = True
    widened_retry: bool = True
    rpce_distance_scale: float = 2.0
    icp_iteration_scale: float = 2.0
    bridge_with_prior: bool = True


@dataclass
class OdometryResult:
    """Everything a sequence run produced.

    ``trajectory`` holds absolute poses in the first frame's coordinate
    system (starting at identity).  ``errors`` is filled only when
    ground-truth poses were available for scoring.
    """

    relatives: list[np.ndarray]
    trajectory: list[np.ndarray]
    pair_results: list[RegistrationResult]
    pair_seconds: list[float]
    profiler: StageProfiler
    errors: SequenceErrors | None = None
    per_pair_errors: list[tuple[float, float]] = field(default_factory=list)
    stats: OdometryStats = field(default_factory=OdometryStats)

    @property
    def n_pairs(self) -> int:
        return len(self.relatives)

    @property
    def mean_pair_seconds(self) -> float:
        if not self.pair_seconds:
            return 0.0
        return float(np.mean(self.pair_seconds))

    def summary(self) -> str:
        lines = [
            f"odometry over {self.n_pairs} pairs, "
            f"{self.mean_pair_seconds:.2f} s/pair"
        ]
        if self.stats.n_nonconverged or self.stats.n_unhealthy:
            lines.append(f"health: {self.stats.summary()}")
        if self.errors is not None:
            lines.append(
                f"KITTI errors: {self.errors.translational_percent:.2f} % "
                f"translational, {self.errors.rotational:.4f} deg/m rotational"
            )
        for index, (rot, trans) in enumerate(self.per_pair_errors):
            lines.append(
                f"  pair {index}: rot {rot:.3f} deg, trans {trans:.3f} m"
            )
        return "\n".join(lines)


def _score_run(
    relatives: list[np.ndarray],
    pair_results: list[RegistrationResult],
    pair_seconds: list[float],
    profiler: StageProfiler,
    ground_truth_poses: list[np.ndarray] | None,
    stats: OdometryStats,
) -> OdometryResult:
    """Chain relatives into a trajectory and score against ground truth."""
    n_pairs = len(relatives)
    trajectory = metrics.trajectory_from_relative(relatives)

    errors = None
    per_pair: list[tuple[float, float]] = []
    if ground_truth_poses is not None:
        truth = list(ground_truth_poses)[: n_pairs + 1]
        if len(truth) != n_pairs + 1:
            raise ValueError("ground_truth_poses shorter than the run")
        errors = metrics.kitti_sequence_errors(trajectory, truth)
        gt_relatives = metrics.relative_from_trajectory(truth)
        per_pair = [
            metrics.pair_errors(estimate, gt)
            for estimate, gt in zip(relatives, gt_relatives)
        ]
    return OdometryResult(
        relatives=relatives,
        trajectory=trajectory,
        pair_results=pair_results,
        pair_seconds=pair_seconds,
        profiler=profiler,
        errors=errors,
        per_pair_errors=per_pair,
        stats=stats,
    )


class StreamingOdometry:
    """Streaming sequence odometry with cross-frame artifact reuse.

    Frames are fed one at a time via :meth:`push`.  The engine caches
    the trailing frame's :class:`~repro.registration.pipeline.FrameState`
    (search structure, normals, keypoints, descriptors) so
    that pair ``k``'s preprocessed *source* becomes pair ``k + 1``'s
    *target* without recomputation — the steady-state per-pair cost is
    one frame preprocess plus one pairwise match, versus two
    preprocesses plus a match for ``Pipeline.register``.  Every pair is
    bit-identical to ``Pipeline.register`` on the raw frames with the
    same seed: the per-frame/pairwise split reorders computation but
    never changes it.

    Usage::

        engine = StreamingOdometry(pipeline)
        for frame in frames:
            engine.push(frame)          # returns a RegistrationResult
        result = engine.result(poses)   # once >= 2 frames were pushed
    """

    def __init__(
        self,
        pipeline: Pipeline,
        seed_with_previous: bool = True,
        tracer=None,
        recovery: RecoveryConfig | None = None,
    ):
        self.pipeline = pipeline
        self.seed_with_previous = seed_with_previous
        # Optional repro.telemetry.Tracer: every push records a
        # "pair" (or "bootstrap") span with the pipeline spans nested
        # inside.  None (the default) costs nothing.
        self.tracer = tracer
        # Optional failure-aware mode: assess every pair's health and
        # climb the RecoveryConfig ladder on unhealthy ones.  None (the
        # default) preserves the legacy consume-everything behavior
        # bit-for-bit; non-converged pairs are counted either way.
        self.recovery = recovery
        self.stats = OdometryStats()
        self.profiler = StageProfiler()
        self.relatives: list[np.ndarray] = []
        self.pair_results: list[RegistrationResult] = []
        self.pair_seconds: list[float] = []
        self._target_state: FrameState | None = None
        self._previous: np.ndarray | None = None
        self._n_frames = 0
        self._recovery_pipeline: Pipeline | None = None
        # Preprocessing time for the very first frame, folded into pair
        # 0's seconds so pair 0 accounts for both of its frames.
        self._pending_seconds = 0.0

    @property
    def n_frames(self) -> int:
        """How many frames have been pushed."""
        return self._n_frames

    @property
    def n_pairs(self) -> int:
        return len(self.relatives)

    @property
    def target_state(self) -> FrameState | None:
        """The cached trailing frame's preprocessed artifacts."""
        return self._target_state

    def push(self, frame: PointCloud) -> RegistrationResult | None:
        """Feed the next frame; registers it against the previous one.

        Returns the pair's :class:`RegistrationResult`, or ``None`` for
        the very first frame (which is only preprocessed and cached).
        """
        start = time.perf_counter()
        step_profiler = StageProfiler(tracer=self.tracer)
        tracer = tracer_of(step_profiler)
        self._n_frames += 1

        initial = (
            self._previous
            if (self.seed_with_previous and self._previous is not None)
            else None
        )
        run_initial = self.pipeline.runs_initial(initial)

        if self._target_state is None:
            # First frame: preprocess and wait for a partner.  Features
            # are computed only if pair 0 will run initial estimation.
            with tracer.span("bootstrap", frame=self._n_frames - 1):
                self._target_state = self.pipeline.preprocess(
                    frame, profiler=step_profiler, with_features=run_initial
                )
            self.profiler.merge(step_profiler)
            self._pending_seconds = time.perf_counter() - start
            return None

        with tracer.span(
            "pair", index=self.n_pairs, seeded=initial is not None
        ):
            source_state = self.pipeline.preprocess(
                frame, profiler=step_profiler, with_features=run_initial
            )
            # When this pair runs initial estimation, the cached target
            # was preprocessed with features too (its own pair was
            # unseeded as well); if that invariant ever breaks, match()
            # computes the missing features locally without caching
            # them back.
            result = self.pipeline.match(
                source_state,
                self._target_state,
                initial=initial,
                profiler=step_profiler,
            )

            health: RegistrationHealth | None = None
            actions: tuple[str, ...] = ()
            if self.recovery is not None:
                health = assess_registration(
                    result, self.recovery.health, prior=self._previous
                )
                if not health.healthy:
                    result, health, actions = self._recover(
                        source_state, initial, result, health,
                        step_profiler, tracer,
                    )

            self.stats.n_pairs += 1
            if not result.icp.converged:
                self.stats.n_nonconverged += 1
                tracer.count("odometry.nonconverged")
            self.stats.pair_health.append(health)
            self.stats.pair_actions.append(actions)
            if health is not None:
                for reason in health.reasons:
                    self.stats.failure_counts[reason] = (
                        self.stats.failure_counts.get(reason, 0) + 1
                    )
                tracer.annotate(
                    healthy=health.healthy,
                    degraded="bridge" in actions,
                    **(
                        {"recovery": ",".join(actions)} if actions else {}
                    ),
                )

        self.pair_seconds.append(
            time.perf_counter() - start + self._pending_seconds
        )
        self._pending_seconds = 0.0
        self.profiler.merge(step_profiler)
        self.relatives.append(result.transformation)
        self.pair_results.append(result)
        self._previous = result.transformation
        # The handoff: this pair's source is the next pair's target.
        self._target_state = source_state
        return result

    def _widened_pipeline(self) -> Pipeline:
        """The recovery pipeline: same config, widened pairwise budgets.

        Only pairwise knobs change (RPCE correspondence distance, ICP
        iteration budget), so every cached :class:`FrameState` remains
        valid for it — the same trick the loop closer uses for its
        verification matcher.  Built once, on first use.
        """
        if self._recovery_pipeline is None:
            recovery = self.recovery
            config = self.pipeline.config
            icp_config = replace(
                config.icp,
                rpce=replace(
                    config.icp.rpce,
                    max_distance=(
                        None
                        if config.icp.rpce.max_distance is None
                        else config.icp.rpce.max_distance
                        * recovery.rpce_distance_scale
                    ),
                ),
                max_iterations=max(
                    config.icp.max_iterations + 1,
                    int(
                        round(
                            config.icp.max_iterations
                            * recovery.icp_iteration_scale
                        )
                    ),
                ),
            )
            self._recovery_pipeline = Pipeline(replace(config, icp=icp_config))
        return self._recovery_pipeline

    def _recover(
        self,
        source_state: FrameState,
        initial: np.ndarray | None,
        result: RegistrationResult,
        health: RegistrationHealth,
        profiler: StageProfiler,
        tracer,
    ) -> tuple[RegistrationResult, RegistrationHealth, tuple[str, ...]]:
        """Climb the recovery ladder for one unhealthy pair.

        Returns the accepted (result, health, actions) — the first
        healthy retry, or the bridged/degraded outcome.  A bridged
        result carries the motion-model prediction as its
        transformation (so trajectory chaining and downstream consumers
        see the substitute) while keeping the failed attempt's ICP
        diagnostics.
        """
        recovery = self.recovery
        prior = self._previous
        actions: list[str] = []
        self.stats.n_unhealthy += 1
        tracer.count("odometry.unhealthy")

        # Retries are judged on intrinsic quality only: the prior
        # tolerances are disabled for re-assessment (deviations are
        # still recorded).  A prior disagreement means either a bad
        # solve or genuinely changed motion — and the retry is exactly
        # the experiment that distinguishes them.  If an independent
        # re-solve with a fresh seed / widened search is self-consistent
        # (converged, low RMSE, non-degenerate, physically plausible)
        # yet still disagrees with the motion model, the measurement
        # wins: bridging it away would hard-code the constant-velocity
        # assumption precisely when the platform broke it (e.g. the
        # double-length true motion across a dropped frame).
        retry_config = replace(
            recovery.health,
            prior_translation_tolerance=None,
            prior_rotation_tolerance_deg=None,
        )

        # Rung 1: re-seed from the constant-velocity motion model —
        # unless the failed attempt already used exactly that seed.
        if (
            recovery.reseed_from_prior
            and prior is not None
            and (initial is None or not np.array_equal(initial, prior))
        ):
            actions.append("reseed")
            self.stats.n_reseeded += 1
            tracer.count("odometry.reseeded")
            with tracer.span("recovery", rung="reseed"):
                candidate = self.pipeline.match(
                    source_state, self._target_state,
                    initial=prior, profiler=profiler,
                )
            candidate_health = assess_registration(
                candidate, retry_config, prior=prior
            )
            if candidate_health.healthy:
                return candidate, candidate_health, tuple(actions)
            result, health = candidate, candidate_health

        # Rung 2: widened correspondence/iteration budgets.
        if recovery.widened_retry:
            actions.append("widen")
            self.stats.n_widened += 1
            tracer.count("odometry.widened")
            with tracer.span("recovery", rung="widen"):
                candidate = self._widened_pipeline().match(
                    source_state, self._target_state,
                    initial=prior if prior is not None else initial,
                    profiler=profiler,
                )
            candidate_health = assess_registration(
                candidate, retry_config, prior=prior
            )
            if candidate_health.healthy:
                return candidate, candidate_health, tuple(actions)
            result, health = candidate, candidate_health

        # Rung 3: bridge the pair with the motion-model prediction and
        # mark it degraded.  Without a prior (pair 0 failing) the
        # unhealthy transform is kept — there is nothing to bridge with
        # — but the pair is still marked degraded for downstream gates.
        degraded_index = self.n_pairs
        self.stats.degraded_pairs.append(degraded_index)
        if recovery.bridge_with_prior and prior is not None:
            actions.append("bridge")
            self.stats.n_bridged += 1
            tracer.count("odometry.bridged")
            result = replace(result, transformation=np.array(prior))
        return result, health, tuple(actions)

    def result(
        self, ground_truth_poses: list[np.ndarray] | None = None
    ) -> OdometryResult:
        """Chain the pairs registered so far into a scored trajectory.

        The returned result is a snapshot: further :meth:`push` calls
        do not mutate it.
        """
        if self.n_pairs == 0:
            raise ValueError("need at least two frames")
        profiler = StageProfiler()
        profiler.merge(self.profiler)
        return _score_run(
            list(self.relatives),
            list(self.pair_results),
            list(self.pair_seconds),
            profiler,
            ground_truth_poses,
            stats=self.stats.snapshot(),
        )


def run_odometry(
    frames: list[PointCloud] | SyntheticSequence,
    pipeline: Pipeline,
    ground_truth_poses: list[np.ndarray] | None = None,
    seed_with_previous: bool = True,
    max_pairs: int | None = None,
    tracer=None,
    recovery: RecoveryConfig | None = None,
) -> OdometryResult:
    """Register a frame sequence into a scored trajectory.

    ``frames`` may be a plain list of clouds or a
    :class:`~repro.io.dataset.SyntheticSequence` (whose ground-truth
    poses are then used for scoring unless explicitly overridden).  The
    frames flow through a :class:`StreamingOdometry` engine, so each is
    preprocessed once.  ``recovery`` enables the failure-aware ladder
    (see :class:`RecoveryConfig`).  Passing a
    :class:`~repro.telemetry.Tracer` records a per-pair span tree
    (``pair -> preprocess/match -> stages``) for trace export.
    """
    if isinstance(frames, SyntheticSequence):
        if ground_truth_poses is None:
            ground_truth_poses = frames.poses
        frames = frames.frames
    if len(frames) < 2:
        raise ValueError("need at least two frames")
    n_pairs = len(frames) - 1
    if max_pairs is not None:
        n_pairs = min(n_pairs, max_pairs)

    engine = StreamingOdometry(
        pipeline, seed_with_previous=seed_with_previous, tracer=tracer,
        recovery=recovery,
    )
    for frame in frames[: n_pairs + 1]:
        engine.push(frame)
    return engine.result(ground_truth_poses)
