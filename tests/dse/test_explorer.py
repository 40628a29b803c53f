"""Tests for the DSE driver (kept small: two cheap configs, one pair)."""

import numpy as np
import pytest

from repro.dse import DesignPointResult, ExplorationReport, explore
from repro.io import SceneSuite, default_test_model
from repro.registration import (
    ICPConfig,
    KeypointConfig,
    PipelineConfig,
    RPCEConfig,
)


def cheap_config(max_iterations: int) -> PipelineConfig:
    return PipelineConfig(
        keypoints=KeypointConfig(
            method="uniform", params={"voxel_size": 3.0}, min_keypoints=8
        ),
        icp=ICPConfig(
            rpce=RPCEConfig(max_distance=1.5), max_iterations=max_iterations
        ),
        voxel_downsample=1.2,
        skip_initial_estimation=True,
    )


def evaluate_one(name, config, sequence):
    """One configuration's point, explored alone over one pair."""
    return explore({name: config}, sequence, max_pairs=1).results[0]


class TestEvaluateConfig:
    def test_result_fields(self, lidar_sequence):
        result = evaluate_one("quick", cheap_config(5), lidar_sequence)
        assert result.name == "quick"
        assert result.time > 0
        assert result.translational_error >= 0
        assert result.rotational_error >= 0
        assert "profiler" in result.detail
        assert "kdtree_fractions" in result.detail

    def test_stage_fractions_sum_to_one(self, lidar_sequence):
        result = evaluate_one("quick", cheap_config(3), lidar_sequence)
        total = sum(result.detail["stage_fractions"].values())
        assert total == pytest.approx(1.0)

    def test_more_iterations_cost_more_time(self, lidar_sequence):
        fast = evaluate_one("fast", cheap_config(2), lidar_sequence)
        slow = evaluate_one("slow", cheap_config(20), lidar_sequence)
        assert slow.time > fast.time


class TestExplore:
    def test_report_structure(self, lidar_sequence):
        report = explore(
            {"fast": cheap_config(2), "slow": cheap_config(10)},
            lidar_sequence,
            max_pairs=1,
        )
        assert isinstance(report, ExplorationReport)
        assert len(report.results) == 2
        assert 1 <= len(report.translational_frontier) <= 2
        assert 1 <= len(report.rotational_frontier) <= 2

    def test_summary_mentions_all(self, lidar_sequence):
        report = explore(
            {"fast": cheap_config(2), "slow": cheap_config(10)},
            lidar_sequence,
            max_pairs=1,
        )
        text = report.summary()
        assert "fast" in text
        assert "slow" in text

    def test_detail_carries_parity_material(self, lidar_sequence):
        report = explore({"fast": cheap_config(2)}, lidar_sequence, max_pairs=1)
        detail = report.results[0].detail
        assert len(detail["relatives"]) == 1
        assert detail["relatives"][0].shape == (4, 4)
        assert len(detail["pair_stats"]) == 1
        assert detail["icp_iterations"][0] >= 1

    def test_shared_front_end_matches_each_config_alone(self, lidar_sequence):
        """Configs that differ only in a pairwise knob share one
        fingerprint group and its preprocessed frames; sharing must not
        change what either reports."""
        configs = {"fast": cheap_config(2), "slow": cheap_config(10)}
        assert (
            configs["fast"].frontend_fingerprint()
            == configs["slow"].frontend_fingerprint()
        )
        shared = explore(configs, lidar_sequence, max_pairs=1)
        for point in shared.results:
            alone = evaluate_one(point.name, configs[point.name], lidar_sequence)
            assert point.translational_error == alone.translational_error
            assert point.rotational_error == alone.rotational_error
            for a, b in zip(point.detail["relatives"], alone.detail["relatives"]):
                assert np.array_equal(a, b)
            assert point.detail["pair_stats"] == alone.detail["pair_stats"]
            assert point.detail["icp_iterations"] == alone.detail["icp_iterations"]


class TestMultiScene:
    @pytest.fixture(scope="class")
    def report(self):
        suite = SceneSuite.default(
            n_frames=3,
            model=default_test_model(azimuth_steps=100, channels=10),
            scenes=("urban", "room"),
        )
        return explore(
            {"fast": cheap_config(2), "slow": cheap_config(10)}, suite
        )

    def test_per_scene_results(self, report):
        assert report.scenes == ("urban", "room")
        for scene, results in report.scene_results.items():
            assert [r.name for r in results] == ["fast", "slow"]
            assert all(r.scene == scene for r in results)

    def test_aggregate_is_cross_scene_mean(self, report):
        for aggregate in report.results:
            members = aggregate.detail["per_scene"]
            assert set(members) == {"urban", "room"}
            assert aggregate.translational_error == pytest.approx(
                np.mean([m.translational_error for m in members.values()])
            )
            assert aggregate.time == pytest.approx(
                np.mean([m.time for m in members.values()])
            )
            assert aggregate.scene is None

    def test_per_scene_frontiers(self, report):
        for scene in report.scenes:
            frontiers = report.scene_frontiers[scene]
            assert 1 <= len(frontiers["translational"]) <= 2
            assert 1 <= len(frontiers["rotational"]) <= 2
            assert all(
                any(f is r for r in report.scene_results[scene])
                for f in frontiers["translational"]
            )

    def test_scene_summary_table(self, report):
        table = report.scene_summary()
        assert "urban" in table
        assert "room" in table
        assert "aggregate" in table
        assert "fast" in table and "slow" in table

    def test_dict_of_scenes_accepted(self, lidar_sequence):
        report = explore(
            {"fast": cheap_config(2)},
            {"only": lidar_sequence},
            max_pairs=1,
        )
        assert report.scenes == ("only",)
        # A single scene is reported directly, not wrapped in aggregates.
        assert report.results[0] is report.scene_results["only"][0]


class TestExploreTelemetry:
    def configs(self):
        return {"fast": cheap_config(2), "slow": cheap_config(10)}

    def explore_traced(self, lidar_sequence, workers: int):
        from repro.telemetry import Tracer

        tracer = Tracer()
        report = explore(
            self.configs(),
            lidar_sequence,
            max_pairs=1,
            workers=workers,
            tracer=tracer,
        )
        return tracer, report

    def test_single_explore_root_with_group_subtrees(self, lidar_sequence):
        tracer, _ = self.explore_traced(lidar_sequence, workers=1)
        assert [root.name for root in tracer.roots] == ["explore"]
        explore_span = tracer.roots[0]
        groups = [c for c in explore_span.children if c.name == "group"]
        assert len(groups) == explore_span.args["n_groups"]
        names = {span.name for span in explore_span.walk()}
        assert {"explore", "group", "config", "pair", "match"} <= names

    def test_inprocess_groups_stay_on_main_track(self, lidar_sequence):
        tracer, _ = self.explore_traced(lidar_sequence, workers=1)
        assert all(
            span.track is None for span in tracer.roots[0].walk()
        )

    def test_workers_merge_into_one_parent_trace(self, lidar_sequence):
        tracer, traced_report = self.explore_traced(lidar_sequence, workers=2)
        # Still one root: every worker shard adopted under "explore".
        assert [root.name for root in tracer.roots] == ["explore"]
        explore_span = tracer.roots[0]
        groups = [c for c in explore_span.children if c.name == "group"]
        assert len(groups) == explore_span.args["n_groups"]
        # Worker subtrees carry their origin pid on every span.
        for group in groups:
            tracks = {span.track for span in group.walk()}
            assert len(tracks) == 1
            assert tracks != {None}
        # Tracing a sharded run must not perturb the results.
        reference = explore(self.configs(), lidar_sequence, max_pairs=1)
        for ours, ref in zip(traced_report.results, reference.results):
            assert ours.name == ref.name
            assert ours.translational_error == ref.translational_error
            assert ours.rotational_error == ref.rotational_error

    def test_counters_fold_across_workers(self, lidar_sequence):
        tracer, _ = self.explore_traced(lidar_sequence, workers=2)
        assert tracer.counters.get("queries") > 0
        assert tracer.counters.get("nodes_visited") > 0


class TestFrontierTags:
    def ndarray_point(self, name, time, err):
        """Equal scalar fields + ndarray-laden detail: dataclass ``==``
        on these raises, so summary() must tag by identity."""
        return DesignPointResult(
            name=name,
            time=time,
            translational_error=err,
            rotational_error=err,
            detail={"relatives": [np.eye(4)]},
        )

    def test_summary_tags_by_identity(self):
        twin_a = self.ndarray_point("twin", 1.0, 0.1)
        twin_b = self.ndarray_point("twin", 1.0, 0.1)
        dominated = self.ndarray_point("worse", 2.0, 0.2)
        report = ExplorationReport(results=[twin_a, twin_b, dominated])
        text = report.summary()
        lines = [line for line in text.splitlines() if "worse" in line]
        assert len(lines) == 1
        assert "T" not in lines[0].replace("worse", "")
        assert sum("T" in li.replace("twin", "") for li in text.splitlines()) == 2
