"""Self-registration invariants: aligning a cloud with (a transformed
copy of) itself must recover the transform to numerical precision.

These are the strongest end-to-end correctness probes available without
ground-truth scan geometry: no sampling mismatch, no sensor noise —
any residual error is the pipeline's own.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import se3
from repro.registration import (
    ICPConfig,
    Pipeline,
    PipelineConfig,
    RPCEConfig,
    SearchConfig,
)


def icp_only(backend="twostage", metric="point_to_point"):
    return PipelineConfig(
        icp=ICPConfig(
            rpce=RPCEConfig(max_distance=2.0),
            error_metric=metric,
            max_iterations=40,
            transformation_epsilon=1e-9,
        ),
        search=SearchConfig(backend=backend),
        skip_initial_estimation=True,
    )


class TestSelfRegistration:
    def test_identity_for_same_cloud(self, lidar_pair):
        source, _, _ = lidar_pair
        result = Pipeline(icp_only()).register(source, source)
        rot, trans = se3.transform_distance(np.eye(4), result.transformation)
        assert rot < 1e-9
        assert trans < 1e-9
        assert result.icp.rmse < 1e-12

    @given(seed=st.integers(0, 50))
    @settings(max_examples=5, deadline=None)
    def test_recovers_random_small_transform(self, lidar_pair, seed):
        source, _, _ = lidar_pair
        rng = np.random.default_rng(seed)
        truth = se3.small_transform(rng, max_angle=0.05, max_translation=0.3)
        moved = source.transformed(se3.invert(truth))
        result = Pipeline(icp_only()).register(moved, source)
        rot, trans = se3.transform_distance(truth, result.transformation)
        assert rot < 1e-4
        assert trans < 1e-4

    def test_all_backends_recover(self, lidar_pair):
        source, _, _ = lidar_pair
        rng = np.random.default_rng(3)
        truth = se3.small_transform(rng, max_angle=0.03, max_translation=0.2)
        moved = source.transformed(se3.invert(truth))
        for backend in ("canonical", "twostage"):
            result = Pipeline(icp_only(backend=backend)).register(moved, source)
            _, trans = se3.transform_distance(truth, result.transformation)
            assert trans < 1e-4, backend

    def test_point_to_plane_self_registration(self, cloud_with_normals):
        cloud = cloud_with_normals
        rng = np.random.default_rng(4)
        truth = se3.small_transform(rng, max_angle=0.02, max_translation=0.15)
        moved = cloud.transformed(se3.invert(truth))
        result = Pipeline(icp_only(metric="point_to_plane")).register(
            moved, cloud
        )
        _, trans = se3.transform_distance(truth, result.transformation)
        assert trans < 1e-3

    def test_larger_displacement_with_seed(self, lidar_pair):
        """A big displacement is recovered when seeded nearby —
        the initial-estimation phase's contract."""
        source, _, _ = lidar_pair
        rng = np.random.default_rng(5)
        truth = se3.make_transform(se3.rot_z(0.3), [3.0, -1.0, 0.2])
        moved = source.transformed(se3.invert(truth))
        near = se3.compose(truth, se3.small_transform(rng, 0.02, 0.2))
        result = Pipeline(icp_only()).register(moved, source, initial=near)
        _, trans = se3.transform_distance(truth, result.transformation)
        assert trans < 1e-4
