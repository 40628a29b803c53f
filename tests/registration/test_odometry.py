"""Unit tests for the sequence odometry driver."""

import numpy as np
import pytest

from repro.registration import (
    ICPConfig,
    KeypointConfig,
    OdometryResult,
    Pipeline,
    PipelineConfig,
    RPCEConfig,
    run_odometry,
)


@pytest.fixture(scope="module")
def quick_pipeline():
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
            skip_initial_estimation=True,
        )
    )


class TestRunOdometry:
    def test_sequence_object_input(self, lidar_sequence, quick_pipeline):
        result = run_odometry(lidar_sequence, quick_pipeline)
        assert isinstance(result, OdometryResult)
        assert result.n_pairs == len(lidar_sequence) - 1
        assert len(result.trajectory) == len(lidar_sequence)
        assert result.errors is not None
        assert result.errors.translational < 1.0

    def test_trajectory_starts_at_identity(self, lidar_sequence, quick_pipeline):
        result = run_odometry(lidar_sequence, quick_pipeline, max_pairs=1)
        assert np.array_equal(result.trajectory[0], np.eye(4))

    def test_plain_frame_list_without_ground_truth(
        self, lidar_sequence, quick_pipeline
    ):
        result = run_odometry(
            list(lidar_sequence.frames[:2]), quick_pipeline
        )
        assert result.errors is None
        assert result.per_pair_errors == []
        assert result.n_pairs == 1

    def test_max_pairs_limits_work(self, lidar_sequence, quick_pipeline):
        result = run_odometry(lidar_sequence, quick_pipeline, max_pairs=1)
        assert result.n_pairs == 1

    def test_per_pair_errors_align(self, lidar_sequence, quick_pipeline):
        result = run_odometry(lidar_sequence, quick_pipeline, max_pairs=2)
        assert len(result.per_pair_errors) == 2
        for rot, trans in result.per_pair_errors:
            assert rot >= 0
            assert trans >= 0

    def test_seeding_uses_previous_motion(self, lidar_sequence, quick_pipeline):
        seeded = run_odometry(
            lidar_sequence, quick_pipeline, seed_with_previous=True
        )
        unseeded = run_odometry(
            lidar_sequence, quick_pipeline, seed_with_previous=False
        )
        # Both must complete; the seeded run should never be (much) worse.
        assert (
            seeded.errors.translational
            <= unseeded.errors.translational + 0.15
        )

    def test_profiler_merged_across_pairs(self, lidar_sequence, quick_pipeline):
        result = run_odometry(lidar_sequence, quick_pipeline, max_pairs=2)
        assert result.profiler.stages["RPCE"].calls >= 2

    def test_summary_readable(self, lidar_sequence, quick_pipeline):
        result = run_odometry(lidar_sequence, quick_pipeline, max_pairs=1)
        text = result.summary()
        assert "odometry over 1 pairs" in text
        assert "KITTI errors" in text

    def test_single_frame_rejected(self, lidar_sequence, quick_pipeline):
        with pytest.raises(ValueError):
            run_odometry([lidar_sequence.frames[0]], quick_pipeline)

    def test_short_ground_truth_rejected(self, lidar_sequence, quick_pipeline):
        with pytest.raises(ValueError):
            run_odometry(
                list(lidar_sequence.frames),
                quick_pipeline,
                ground_truth_poses=lidar_sequence.poses[:1],
            )
