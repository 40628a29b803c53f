"""Unit tests for the ICP fine-tuning loop."""

import dataclasses

import numpy as np
import pytest

from repro.geometry import se3
from repro.io import PointCloud
from repro.profiling import StageProfiler
from repro.registration import (
    ICPConfig,
    ICPResult,
    NormalEstimationConfig,
    RPCEConfig,
    SearchConfig,
    build_searcher,
    estimate_normals,
    icp,
)
from repro.registration.error_injection import IdentityInjector


@pytest.fixture(scope="module")
def structured_target():
    """Ground + two perpendicular walls: fully constrains all 6 DoF."""
    rng = np.random.default_rng(8)
    n = 500
    parts = [
        np.column_stack([rng.uniform(-8, 8, n), rng.uniform(-8, 8, n), np.zeros(n)]),
        np.column_stack(
            [rng.uniform(-3, 3, n // 3), np.full(n // 3, 4.0), rng.uniform(0, 3, n // 3)]
        ),
        np.column_stack(
            [np.full(n // 3, 3.0), rng.uniform(-4, 4, n // 3), rng.uniform(0, 3, n // 3)]
        ),
    ]
    cloud = PointCloud(np.vstack(parts))
    searcher = build_searcher(cloud.points, SearchConfig())
    cloud = estimate_normals(
        cloud, searcher, NormalEstimationConfig(radius=1.0, orient_towards=(0, 0, 6))
    )
    return cloud, searcher


def displaced_source(target, rng, angle=0.04, translation=0.3):
    gt = se3.make_transform(
        se3.axis_angle_to_rotation(rng.normal(size=3), angle),
        rng.uniform(-translation, translation, size=3),
    )
    return target.transformed(se3.invert(gt)), gt


class TestConvergence:
    def test_point_to_point_recovers(self, structured_target, rng):
        target, searcher = structured_target
        source, gt = displaced_source(target, rng)
        result = icp(
            source, target, searcher,
            ICPConfig(rpce=RPCEConfig(max_distance=1.5), max_iterations=50),
        )
        rot, trans = se3.transform_distance(gt, result.transformation)
        assert result.converged
        assert rot < 1e-4
        assert trans < 1e-4
        assert result.rmse < 1e-6

    def test_point_to_plane_recovers(self, structured_target, rng):
        target, searcher = structured_target
        source, gt = displaced_source(target, rng)
        result = icp(
            source, target, searcher,
            ICPConfig(
                rpce=RPCEConfig(max_distance=1.5),
                error_metric="point_to_plane",
                max_iterations=50,
            ),
        )
        rot, trans = se3.transform_distance(gt, result.transformation)
        assert rot < 1e-4
        assert trans < 1e-4

    def test_lm_solver(self, structured_target, rng):
        target, searcher = structured_target
        source, gt = displaced_source(target, rng)
        result = icp(
            source, target, searcher,
            ICPConfig(rpce=RPCEConfig(max_distance=1.5), solver="lm",
                      max_iterations=30),
        )
        _, trans = se3.transform_distance(gt, result.transformation)
        assert trans < 1e-3

    def test_initial_guess_speeds_convergence(self, structured_target, rng):
        target, searcher = structured_target
        source, gt = displaced_source(target, rng, angle=0.15, translation=1.0)
        config = ICPConfig(rpce=RPCEConfig(max_distance=2.0), max_iterations=50)
        seeded = icp(source, target, searcher, config, initial=gt)
        cold = icp(source, target, searcher, config)
        assert seeded.iterations <= cold.iterations

    def test_max_iterations_respected(self, structured_target, rng):
        target, searcher = structured_target
        source, _ = displaced_source(target, rng)
        result = icp(
            source, target, searcher,
            ICPConfig(rpce=RPCEConfig(max_distance=1.5), max_iterations=2),
        )
        assert result.iterations <= 2

    def test_rmse_history_monotonic_tail(self, structured_target, rng):
        target, searcher = structured_target
        source, _ = displaced_source(target, rng)
        result = icp(
            source, target, searcher,
            ICPConfig(rpce=RPCEConfig(max_distance=1.5), max_iterations=30),
        )
        history = result.rmse_history
        assert len(history) >= 2
        assert history[-1] <= history[0] + 1e-12


class TestConfiguration:
    def test_point_to_plane_requires_target_normals(self, rng):
        bare = PointCloud(rng.normal(size=(50, 3)))
        searcher = build_searcher(bare.points, SearchConfig())
        with pytest.raises(ValueError, match="normals"):
            icp(bare, bare, searcher, ICPConfig(error_metric="point_to_plane"))

    def test_validation(self):
        with pytest.raises(ValueError):
            ICPConfig(error_metric="bogus")
        with pytest.raises(ValueError):
            ICPConfig(solver="bogus")
        with pytest.raises(ValueError):
            ICPConfig(max_iterations=0)

    @pytest.mark.parametrize(
        "config, field, value",
        [(RPCEConfig, "max_distance", value) for value in (np.nan, 0.0, -1.0)]
        + [
            (ICPConfig, field, value)
            for field in ("transformation_epsilon", "fitness_epsilon")
            for value in (np.nan, -1.0)
        ],
    )
    def test_rejects_bad_values(self, config, field, value):
        # NaN compares false both ways: a NaN gate would drop every
        # correspondence, and a NaN epsilon would turn convergence off.
        with pytest.raises(ValueError, match=field):
            config(**{field: value})

    def test_zero_and_inf_stay_valid(self):
        RPCEConfig(max_distance=np.inf)
        ICPConfig(transformation_epsilon=0.0, fitness_epsilon=np.inf)
        ICPConfig(transformation_epsilon=np.inf, fitness_epsilon=0.0)

    def test_profiler_stages_charged(self, structured_target, rng):
        target, _ = structured_target
        source, _ = displaced_source(target, rng)
        profiler = StageProfiler()
        # The searcher must carry the profiler for its query timing to be
        # charged to the active stage (the pipeline wires this the same way).
        searcher = build_searcher(target.points, SearchConfig(), profiler=profiler)
        icp(
            source, target, searcher,
            ICPConfig(rpce=RPCEConfig(max_distance=1.5), max_iterations=5),
            profiler=profiler,
        )
        assert "RPCE" in profiler.stages
        assert "Error Minimization" in profiler.stages
        assert profiler.stages["RPCE"].kdtree_search > 0

    def test_searcher_factory_called_per_iteration(self, structured_target, rng):
        target, _ = structured_target
        source, _ = displaced_source(target, rng)
        calls = []

        def factory():
            calls.append(1)
            return build_searcher(target.points, SearchConfig())

        result = icp(
            source, target, factory(),
            ICPConfig(rpce=RPCEConfig(max_distance=1.5), max_iterations=4,
                      transformation_epsilon=0.0, fitness_epsilon=0.0),
            searcher_factory=factory,
        )
        assert len(calls) == 1 + result.iterations

    def test_no_correspondences_stops_early(self, rng):
        # Source far outside the gate: no pairs, graceful stop.
        target = PointCloud(rng.normal(size=(50, 3)))
        source = PointCloud(rng.normal(size=(50, 3)) + 1000.0)
        searcher = build_searcher(target.points, SearchConfig())
        result = icp(
            source, target, searcher,
            ICPConfig(rpce=RPCEConfig(max_distance=0.5), max_iterations=10),
        )
        assert not result.converged
        assert result.n_correspondences < 6


class TestSearchAccounting:
    def test_reciprocal_charges_the_reverse_search(self, lidar_pair):
        source, target, _ = lidar_pair
        searcher = build_searcher(target.points, SearchConfig())
        result = icp(
            source, target, searcher,
            ICPConfig(rpce=RPCEConfig(reciprocal=True), max_iterations=3,
                      transformation_epsilon=0.0, fitness_epsilon=0.0),
        )
        # No distance gate: every forward match is searched back.
        assert result.iterations == 3
        assert searcher.stats.batches == 2 * result.iterations
        assert searcher.stats.queries == 2 * result.iterations * len(source)


def assert_same_result(got: ICPResult, expected: ICPResult) -> None:
    for field in dataclasses.fields(ICPResult):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        if a is None or b is None:
            assert a is b, field.name
        else:
            a, b = np.asarray(a), np.asarray(b)
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert a.tobytes() == b.tobytes(), field.name


class TestNNReuse:
    """ICP keeps certified nearest neighbors across iterations without a
    search (see repro.core.twostage); an injector on the RPCE searcher
    bypasses that reuse, so the two runs must agree field for field."""

    @pytest.mark.parametrize("metric", ["point_to_point", "point_to_plane"])
    def test_matches_a_run_without_reuse(self, structured_target, rng, metric):
        target, _ = structured_target
        source, _ = displaced_source(target, rng)
        config = ICPConfig(
            rpce=RPCEConfig(max_distance=1.5), error_metric=metric, max_iterations=50
        )
        runs = []
        for injector in (None, IdentityInjector()):
            searcher = build_searcher(target.points, SearchConfig(), injector=injector)
            runs.append((icp(source, target, searcher, config), searcher.stats))
        (reused, reused_stats), (plain, plain_stats) = runs
        assert_same_result(reused, plain)
        assert plain_stats.reused_queries == 0 < reused_stats.reused_queries
        assert reused_stats.queries == plain_stats.queries
        assert reused_stats.results_returned == plain_stats.results_returned
        assert reused_stats.nodes_visited < plain_stats.nodes_visited

    def test_no_reuse_across_calls(self, structured_target, rng):
        """The anchor lives for one ICP call: a second call on the same
        searcher searches every row again and charges the same work."""
        target, _ = structured_target
        source, _ = displaced_source(target, rng)
        searcher = build_searcher(target.points, SearchConfig())
        config = ICPConfig(rpce=RPCEConfig(max_distance=1.5), max_iterations=50)
        first = icp(source, target, searcher, config)
        charged = searcher.stats.as_dict()
        assert_same_result(icp(source, target, searcher, config), first)
        total = searcher.stats.as_dict()
        again = {name: total[name] - charged[name] for name in total}
        assert again == charged
        assert 0 < charged["reused_queries"] <= charged["queries"] - len(source)
