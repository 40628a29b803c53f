"""The failure-aware recovery ladder and its bookkeeping.

The contract under test: recovery enabled on a *clean* sequence changes
nothing (bit-identical trajectory, zero unhealthy pairs); an unhealthy
pair climbs reseed -> widen -> bridge deterministically; retries are
re-judged on intrinsic quality with the motion-model gates disabled, so
a self-consistent solve that genuinely disagrees with the prior is kept
rather than bridged away; and every action lands in
:class:`~repro.registration.odometry.OdometryStats` and the extended
profiler report.
"""

import numpy as np
import pytest

from repro.io import make_sequence
from repro.registration import (
    HealthConfig,
    ICPConfig,
    KeypointConfig,
    Pipeline,
    PipelineConfig,
    RPCEConfig,
    RecoveryConfig,
    StreamingOdometry,
    run_odometry,
)
from repro.telemetry import Tracer
from tests.registration.test_streaming import register_chain


def quick_pipeline(**icp_overrides) -> Pipeline:
    icp = dict(
        rpce=RPCEConfig(max_distance=2.0),
        error_metric="point_to_plane",
        max_iterations=6,
    )
    icp.update(icp_overrides)
    return Pipeline(
        PipelineConfig(
            keypoints=KeypointConfig(
                method="uniform", params={"voxel_size": 3.0}, min_keypoints=8
            ),
            icp=ICPConfig(**icp),
        )
    )


@pytest.fixture(scope="module")
def sequence():
    return make_sequence(n_frames=4, seed=7)


class TestCleanSequenceTransparency:
    def test_bit_identical_with_recovery_enabled(self, sequence):
        plain = run_odometry(sequence, quick_pipeline())
        gated = run_odometry(
            sequence, quick_pipeline(), recovery=RecoveryConfig()
        )
        assert all(
            np.array_equal(ours, reference)
            for ours, reference in zip(gated.trajectory, plain.trajectory)
        )
        assert gated.stats.n_unhealthy == 0
        assert gated.stats.n_reseeded == 0
        assert gated.stats.n_widened == 0
        assert gated.stats.n_bridged == 0
        assert gated.stats.degraded_pairs == []

    def test_health_recorded_per_pair(self, sequence):
        gated = run_odometry(
            sequence, quick_pipeline(), recovery=RecoveryConfig()
        )
        assert len(gated.stats.pair_health) == gated.n_pairs
        assert all(
            health is not None and health.healthy
            for health in gated.stats.pair_health
        )
        assert all(actions == () for actions in gated.stats.pair_actions)

    def test_no_recovery_means_no_assessment(self, sequence):
        plain = run_odometry(sequence, quick_pipeline())
        assert all(health is None for health in plain.stats.pair_health)


class TestLadder:
    def test_impossible_gate_bridges_with_prior(self, sequence):
        # A gate nothing can pass forces the full ladder on every pair.
        recovery = RecoveryConfig(
            health=HealthConfig(max_median_residual=1e-12)
        )
        result = run_odometry(
            sequence, quick_pipeline(), recovery=recovery
        )
        stats = result.stats
        assert stats.n_unhealthy == result.n_pairs
        assert stats.degraded_pairs == list(range(result.n_pairs))
        assert stats.n_recovered == 0
        # Pair 0 has no motion model yet: nothing to bridge with, the
        # unhealthy measurement is kept.  Every later pair is bridged
        # with the prior — which is pair 0's transform, propagated
        # forward by the bridge itself.
        assert stats.n_bridged == result.n_pairs - 1
        for relative in result.relatives[1:]:
            assert np.array_equal(relative, result.relatives[0])
        for actions in stats.pair_actions[1:]:
            assert actions[-1] == "bridge"

    def test_widened_retry_runs_before_bridging(self, sequence):
        recovery = RecoveryConfig(
            health=HealthConfig(max_median_residual=1e-12)
        )
        result = run_odometry(
            sequence, quick_pipeline(), recovery=recovery
        )
        assert result.stats.n_widened == result.n_pairs
        for actions in result.stats.pair_actions:
            assert "widen" in actions

    def test_disabled_rungs_skip_to_bridge(self, sequence):
        recovery = RecoveryConfig(
            health=HealthConfig(max_median_residual=1e-12),
            reseed_from_prior=False,
            widened_retry=False,
        )
        result = run_odometry(
            sequence, quick_pipeline(), recovery=recovery
        )
        assert result.stats.n_widened == 0
        assert result.stats.n_reseeded == 0
        assert result.stats.n_bridged == result.n_pairs - 1

    def test_failure_reasons_counted(self, sequence):
        recovery = RecoveryConfig(
            health=HealthConfig(max_median_residual=1e-12)
        )
        result = run_odometry(
            sequence, quick_pipeline(), recovery=recovery
        )
        assert result.stats.failure_counts.get("median_residual", 0) > 0

    def test_prior_disagreement_alone_is_retried_not_bridged(self, sequence):
        # A zero-tolerance motion-model gate flags every seeded pair,
        # but the retry rungs re-judge on intrinsic quality (prior
        # gates disabled): a self-consistent re-solve is accepted, so
        # nothing gets bridged and the trajectory stays the measured
        # one.
        recovery = RecoveryConfig(
            health=HealthConfig(prior_translation_tolerance=1e-12)
        )
        plain = run_odometry(sequence, quick_pipeline())
        gated = run_odometry(
            sequence, quick_pipeline(), recovery=recovery
        )
        stats = gated.stats
        # Pair 0 is unseeded (no prior yet): the gate cannot fire there.
        assert stats.n_unhealthy == gated.n_pairs - 1
        assert stats.n_bridged == 0
        assert stats.degraded_pairs == []
        assert stats.n_recovered == stats.n_unhealthy
        # The accepted retries re-solve through the widened rung (the
        # reseed rung is skipped: the failed attempt already used the
        # prior seed), so the relatives agree with the ungated run to
        # within the wider correspondence radius's refinement noise —
        # crucially they are measurements, not the prior substitute.
        for ours, reference in zip(gated.relatives, plain.relatives):
            assert np.allclose(ours, reference, atol=5e-3)

    def test_widened_pipeline_scales_pairwise_knobs_only(self, sequence):
        engine = StreamingOdometry(
            quick_pipeline(),
            recovery=RecoveryConfig(
                rpce_distance_scale=2.0, icp_iteration_scale=2.0
            ),
        )
        widened = engine._widened_pipeline().config
        base = engine.pipeline.config
        assert widened.icp.rpce.max_distance == pytest.approx(
            base.icp.rpce.max_distance * 2.0
        )
        assert widened.icp.max_iterations == base.icp.max_iterations * 2
        assert widened.normals == base.normals
        assert widened.keypoints == base.keypoints
        # Built once, reused.
        assert engine._widened_pipeline() is engine._widened_pipeline()


class TestNonConvergedCounting:
    def test_nonconverged_pairs_match_register_chain(self, sequence):
        # One iteration with epsilon criteria it cannot meet: every
        # pair stops on the budget.
        pipeline = quick_pipeline(
            max_iterations=1,
            transformation_epsilon=1e-15,
            fitness_epsilon=1e-15,
        )
        oracle = register_chain(sequence, pipeline)
        converged = [r.icp.converged for r in oracle.pair_results]
        assert not any(converged)
        streaming = run_odometry(sequence, pipeline)
        assert streaming.stats.n_nonconverged == streaming.n_pairs
        assert [r.icp.converged for r in streaming.pair_results] == converged

    def test_summary_and_extended_report(self, sequence):
        recovery = RecoveryConfig(
            health=HealthConfig(max_median_residual=1e-12)
        )
        result = run_odometry(
            sequence, quick_pipeline(), recovery=recovery
        )
        summary = result.stats.summary()
        assert "unhealthy" in summary
        assert "bridged" in summary
        report = result.profiler.report(
            extended=True, odometry_stats=result.stats
        )
        assert "health:" in report
        assert "non-converged" in report
        # The plain report stays free of health lines.
        assert "health:" not in result.profiler.report()


class TestTracedLadder:
    def test_tracer_does_not_change_the_ladder(self, sequence):
        """Every pair unhealthy, so reseed, widen and bridge all run,
        and the traced run must decide and compute exactly what the
        untraced one does.  Pairs are unseeded: a pair seeded with the
        prior skips the reseed rung."""
        recovery = RecoveryConfig(
            health=HealthConfig(max_median_residual=1e-12)
        )

        def run(tracer):
            return run_odometry(
                sequence, quick_pipeline(), seed_with_previous=False,
                tracer=tracer, recovery=recovery,
            )

        tracer = Tracer()
        traced, plain = run(tracer), run(None)
        actions = {a for pair in plain.stats.pair_actions for a in pair}
        assert {"reseed", "widen", "bridge"} <= actions
        assert traced.n_pairs == plain.n_pairs
        for ours, reference in zip(traced.relatives, plain.relatives):
            assert np.array_equal(ours, reference)
        assert traced.stats.pair_actions == plain.stats.pair_actions
        assert traced.stats.failure_counts == plain.stats.failure_counts
        for ours, reference in zip(traced.pair_results, plain.pair_results):
            assert ours.stage_stats == reference.stage_stats
        # The tracer saw the ladder it did not perturb.
        rungs = [
            span.args["rung"]
            for root in tracer.roots
            for span in root.walk()
            if span.name == "recovery"
        ]
        assert rungs.count("widen") == plain.stats.n_widened
        assert rungs.count("reseed") == plain.stats.n_reseeded
