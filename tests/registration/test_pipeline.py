"""Integration-grade unit tests for the configurable pipeline."""

import numpy as np
import pytest

from repro.geometry import metrics
from repro.kdtree import SearchStats
from repro.profiling import StageProfiler
from repro.registration import (
    STAGE_NAMES,
    ICPConfig,
    KeypointConfig,
    KthNeighborInjector,
    Pipeline,
    PipelineConfig,
    RPCEConfig,
    SearchConfig,
    ShellRadiusInjector,
    register_pair,
)


def quick_config(**overrides) -> PipelineConfig:
    """A fast config for pipeline-shape tests on small frames."""
    config = PipelineConfig(
        keypoints=KeypointConfig(
            method="uniform", params={"voxel_size": 3.0}, min_keypoints=10
        ),
        icp=ICPConfig(
            rpce=RPCEConfig(max_distance=1.5), max_iterations=8
        ),
        voxel_downsample=1.0,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


class TestRegister:
    def test_produces_valid_transform(self, lidar_pair):
        source, target, gt = lidar_pair
        result = Pipeline(quick_config()).register(source, target)
        assert result.transformation.shape == (4, 4)
        assert np.all(np.isfinite(result.transformation))
        assert result.success

    def test_improves_over_identity(self, lidar_pair):
        source, target, gt = lidar_pair
        result = Pipeline(quick_config()).register(source, target)
        _, err = metrics.pair_errors(result.transformation, gt)
        _, identity_err = metrics.pair_errors(np.eye(4), gt)
        assert err < identity_err

    def test_initial_seed_skips_front_end(self, lidar_pair):
        source, target, gt = lidar_pair
        profiler = StageProfiler()
        result = Pipeline(quick_config()).register(
            source, target, initial=gt, profiler=profiler
        )
        assert result.n_source_keypoints == 0
        assert "Key-point Detection" not in profiler.stages
        assert np.array_equal(result.initial_transformation, gt)

    def test_skip_initial_estimation_flag(self, lidar_pair):
        source, target, _ = lidar_pair
        config = quick_config(skip_initial_estimation=True)
        result = Pipeline(config).register(source, target)
        assert result.n_feature_correspondences == 0
        assert np.array_equal(result.initial_transformation, np.eye(4))

    def test_empty_cloud_rejected(self, lidar_pair):
        import repro.io

        source, target, _ = lidar_pair
        empty = repro.io.PointCloud(np.empty((0, 3)))
        with pytest.raises(ValueError):
            Pipeline(quick_config()).register(empty, target)

    def test_register_pair_convenience(self, lidar_pair):
        source, target, _ = lidar_pair
        result = register_pair(source, target, quick_config())
        assert result.success


class TestInstrumentation:
    def test_all_stages_profiled(self, lidar_pair):
        source, target, _ = lidar_pair
        profiler = StageProfiler()
        Pipeline(quick_config()).register(source, target, profiler=profiler)
        for stage in STAGE_NAMES:
            assert stage in profiler.stages, stage

    def test_stage_stats_populated(self, lidar_pair):
        source, target, _ = lidar_pair
        result = Pipeline(quick_config()).register(source, target)
        assert result.stage_stats["Normal Estimation"].queries > 0
        assert result.stage_stats["RPCE"].queries > 0
        assert result.total_search_stats.nodes_visited > 0

    def test_kdtree_dominates_search_time(self, lidar_pair):
        """The paper's core observation (Fig. 4b): KD-tree search is a
        large share of registration time across design points."""
        source, target, _ = lidar_pair
        profiler = StageProfiler()
        Pipeline(quick_config()).register(source, target, profiler=profiler)
        fractions = profiler.kdtree_fractions()
        assert fractions["search"] > 0.3


class TestBackends:
    @pytest.mark.parametrize("backend", ["canonical", "twostage"])
    def test_exact_backends_equivalent_errors(self, lidar_pair, backend):
        source, target, gt = lidar_pair
        config = quick_config(search=SearchConfig(backend=backend))
        config.skip_initial_estimation = True
        result = Pipeline(config).register(source, target)
        # Both exact backends must find the same optimum.
        _, err = metrics.pair_errors(result.transformation, gt)
        assert err < 1.5

    def test_approximate_backend_close_to_exact(self, lidar_pair):
        source, target, gt = lidar_pair
        exact_cfg = quick_config(skip_initial_estimation=True)
        approx_cfg = quick_config(
            search=SearchConfig(backend="approximate"),
            skip_initial_estimation=True,
        )
        exact = Pipeline(exact_cfg).register(source, target)
        approx = Pipeline(approx_cfg).register(source, target)
        _, exact_err = metrics.pair_errors(exact.transformation, gt)
        _, approx_err = metrics.pair_errors(approx.transformation, gt)
        # Paper Sec. 6.3: approximation costs little end-to-end accuracy.
        assert approx_err < exact_err + 0.5

    def test_approximate_reduces_search_work(self, lidar_pair):
        """Paper Sec. 6.3: leaders/followers cut the work of each RPCE
        search.  Compared per executed search, because the exact backend
        keeps certified nearest neighbors across ICP iterations without a
        search (``reused_queries``, no work charged), and the two runs need
        not take the same number of ICP iterations."""
        source, target, _ = lidar_pair
        exact = Pipeline(
            quick_config(
                search=SearchConfig(backend="twostage", leaf_size=128),
                skip_initial_estimation=True,
            )
        ).register(source, target)
        approx = Pipeline(
            quick_config(
                search=SearchConfig(backend="approximate", leaf_size=128),
                skip_initial_estimation=True,
            )
        ).register(source, target)
        exact_rpce = exact.stage_stats["RPCE"]
        approx_rpce = approx.stage_stats["RPCE"]
        assert approx_rpce.reused_queries == 0
        exact_searches = exact_rpce.queries - exact_rpce.reused_queries
        assert (
            approx_rpce.total_work / approx_rpce.queries
            < exact_rpce.nodes_visited / exact_searches
        )


class TestErrorInjection:
    def test_rpce_kth_injection_runs(self, lidar_pair):
        source, target, gt = lidar_pair
        config = quick_config(skip_initial_estimation=True)
        config.injectors = {"RPCE": KthNeighborInjector(k=2)}
        result = Pipeline(config).register(source, target)
        assert result.success

    def test_ne_shell_injection_runs(self, lidar_pair):
        source, target, _ = lidar_pair
        config = quick_config(skip_initial_estimation=True)
        config.injectors = {
            "Normal Estimation": ShellRadiusInjector(r1=0.1, r2=0.8)
        }
        result = Pipeline(config).register(source, target)
        assert result.success

    def test_dense_injection_tolerated(self, lidar_pair):
        """Paper Fig. 7: k-th NN errors in RPCE barely move the error."""
        source, target, gt = lidar_pair
        base = quick_config(skip_initial_estimation=True)
        clean = Pipeline(base).register(source, target)
        injected_cfg = quick_config(skip_initial_estimation=True)
        injected_cfg.injectors = {"RPCE": KthNeighborInjector(k=2)}
        injected = Pipeline(injected_cfg).register(source, target)
        _, clean_err = metrics.pair_errors(clean.transformation, gt)
        _, injected_err = metrics.pair_errors(injected.transformation, gt)
        assert injected_err < clean_err + 0.6


class TestSummary:
    def test_summary_mentions_key_facts(self, lidar_pair):
        source, target, _ = lidar_pair
        result = Pipeline(quick_config()).register(source, target)
        text = result.summary()
        assert "registration succeeded" in text
        assert "node visits" in text
        assert "fine-tuning" in text
