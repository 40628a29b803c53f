"""Unit tests for the parametric sweep grid."""

import dataclasses

import numpy as np
import pytest

from repro.dse import SweepSpec, default_sweep, fingerprint_groups, parameter_grid
from repro.registration import (
    DESIGN_POINT_NAMES,
    Pipeline,
    PipelineConfig,
    design_point,
)


class TestSweepSpec:
    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep knob"):
            SweepSpec(bogus_knob=[1, 2])
        with pytest.raises(ValueError, match="unknown sweep knob"):
            SweepSpec(search_gridhash_cell=[1.0])

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            SweepSpec(normal_radius=[])

    def test_default_sweep_is_valid(self):
        spec = default_sweep()
        assert len(spec) == 3


class TestParameterGrid:
    def test_cartesian_product_size(self):
        spec = SweepSpec(
            normal_radius=[0.3, 0.6], icp_max_iterations=[5, 10, 20]
        )
        points = list(parameter_grid(spec))
        assert len(points) == 6

    def test_configs_reflect_assignment(self):
        spec = SweepSpec(normal_radius=[0.3, 0.9])
        configs = dict(parameter_grid(spec))
        radii = sorted(c.normals.radius for c in configs.values())
        assert radii == [0.3, 0.9]

    def test_names_are_unique_and_traceable(self):
        points = list(parameter_grid(default_sweep()))
        names = [name for name, _ in points]
        assert len(set(names)) == len(names)
        assert all("nr=" in name and "em=" in name for name in names)

    def test_all_configs_valid(self):
        for _, config in parameter_grid(default_sweep()):
            assert isinstance(config, PipelineConfig)
            assert config.icp.max_iterations in (8, 20)

    def test_algorithmic_knobs(self):
        spec = SweepSpec(
            keypoint_method=["uniform", "harris"],
            descriptor_method=["fpfh", "shot"],
            rejection_method=["threshold", "ransac"],
        )
        points = list(parameter_grid(spec))
        assert len(points) == 8
        methods = {c.keypoints.method for _, c in points}
        assert methods == {"uniform", "harris"}

    def test_naming_is_deterministic(self):
        """Two expansions of the same spec yield identical names in
        identical order — DSE results stay traceable across runs."""
        spec = SweepSpec(normal_radius=[0.3, 0.6], icp_max_iterations=[5, 10])
        first = [name for name, _ in parameter_grid(spec)]
        second = [name for name, _ in parameter_grid(spec)]
        assert first == second
        assert len(set(first)) == len(first)


class TestFingerprintGroups:
    def test_default_sweep_groups_by_frontend(self):
        """The default sweep varies one front-end knob (normal_radius,
        2 values) and two pairwise knobs — 8 configs, 2 groups of 4."""
        configs = dict(parameter_grid(default_sweep()))
        groups = fingerprint_groups(configs)
        assert len(configs) == 8
        assert len(groups) == 2
        assert sorted(len(g) for g in groups.values()) == [4, 4]
        regrouped = [name for group in groups.values() for name in group]
        assert sorted(regrouped) == sorted(configs)

    def test_frontend_knob_splits_groups(self):
        spec = SweepSpec(
            descriptor_radius=[0.8, 1.0, 1.2], icp_max_iterations=[5, 10]
        )
        groups = fingerprint_groups(dict(parameter_grid(spec)))
        assert len(groups) == 3
        assert all(len(g) == 2 for g in groups.values())

    def test_identical_configs_share_fingerprint(self):
        a = PipelineConfig()
        b = PipelineConfig()
        assert a.frontend_fingerprint() == b.frontend_fingerprint()
        groups = fingerprint_groups({"a": a, "b": b})
        assert len(groups) == 1

    def test_pairwise_knobs_do_not_split(self):
        from repro.registration import ICPConfig

        a = PipelineConfig(icp=ICPConfig(max_iterations=5))
        b = PipelineConfig(icp=ICPConfig(max_iterations=50))
        assert a.frontend_fingerprint() == b.frontend_fingerprint()

    def test_frontend_injector_isolates_config(self):
        class FakeInjector:
            pass

        injector = FakeInjector()
        plain = PipelineConfig()
        with_injector = PipelineConfig(
            injectors={"Normal Estimation": injector}
        )
        same_injector = PipelineConfig(
            injectors={"Normal Estimation": injector}
        )
        assert plain.frontend_fingerprint() != with_injector.frontend_fingerprint()
        assert (
            with_injector.frontend_fingerprint()
            == same_injector.frontend_fingerprint()
        )

    def test_pairwise_injector_does_not_split(self):
        class FakeInjector:
            pass

        a = PipelineConfig(injectors={"RPCE": FakeInjector()})
        b = PipelineConfig(injectors={"RPCE": FakeInjector()})
        assert a.frontend_fingerprint() == b.frontend_fingerprint()

    def test_groups_uniform_in_initial_estimation(self):
        """The explorer decides features and consumed stages once per
        group, from its first member, so no group may mix configs that
        run initial estimation with configs that skip it."""
        configs = {}
        for name, config in parameter_grid(default_sweep()):
            configs[name] = config
            configs[f"{name}/skip"] = dataclasses.replace(
                config, skip_initial_estimation=True
            )
        for name in DESIGN_POINT_NAMES:
            configs[name] = design_point(name)
            configs[f"{name}/skip"] = dataclasses.replace(
                design_point(name), skip_initial_estimation=True
            )
        groups = fingerprint_groups(configs)
        assert len(groups) > 1
        for group in groups.values():
            runs = {Pipeline(config).runs_initial() for config in group.values()}
            assert len(runs) == 1


class TestSearchKnobs:
    """The search backend and leaf size as swept design axes, through
    the grid, the fingerprints, and a real exploration with Pareto
    extraction."""

    def test_knobs_expand_and_trace(self):
        spec = SweepSpec(
            search_backend=["canonical", "twostage"],
            search_leaf_size=[32, 64],
        )
        points = list(parameter_grid(spec))
        assert len(points) == 4
        for name, config in points:
            assert f"sb={config.search.backend}" in name
            assert f"ls={config.search.leaf_size}" in name
        assert {(c.search.backend, c.search.leaf_size) for _, c in points} == {
            ("canonical", 32),
            ("canonical", 64),
            ("twostage", 32),
            ("twostage", 64),
        }

    def test_leaf_sizes_split_fingerprints(self):
        spec = SweepSpec(search_leaf_size=[16, 32, 64])
        groups = fingerprint_groups(dict(parameter_grid(spec)))
        assert len(groups) == 3

    def test_explore_places_backends_on_the_map(self, lidar_sequence):
        """Exact-backend design points evaluate end to end and enter the
        Pareto machinery together."""
        from repro.dse import explore, pareto_frontier
        from repro.registration import ICPConfig, KeypointConfig, RPCEConfig
        from repro.registration.search import SearchConfig

        def config(backend):
            return PipelineConfig(
                keypoints=KeypointConfig(
                    method="uniform", params={"voxel_size": 3.0}, min_keypoints=8
                ),
                icp=ICPConfig(
                    rpce=RPCEConfig(max_distance=1.5), max_iterations=5
                ),
                voxel_downsample=1.2,
                skip_initial_estimation=True,
                search=SearchConfig(backend=backend),
            )

        configs = {
            backend: config(backend)
            for backend in ("canonical", "twostage", "bruteforce")
        }
        report = explore(configs, lidar_sequence, max_pairs=1)
        by_name = {r.name: r for r in report.results}
        assert set(by_name) == set(configs)
        for result in report.results:
            assert np.isfinite(result.time) and result.time > 0
            assert np.isfinite(result.translational_error)
        frontier = pareto_frontier(report.results)
        assert frontier  # non-empty, and every member is a real result
        assert {r.name for r in frontier} <= set(configs)
