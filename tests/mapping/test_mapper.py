"""Acceptance tests for the streaming SLAM engine (ISSUE 4).

The headline scenario is the ``urban_loop`` suite sequence — two laps
around a circuit, so the second lap revisits every point of the first.
On it the mapper must: detect at least one verified loop closure, cut
absolute trajectory error to at most half the open-loop streaming
odometry's, preprocess every frame exactly once (loop verification
reuses the keyframes' cached ``FrameState`` artifacts), and — with loop
closure disabled — reproduce the open-loop trajectory bit for bit.

The full-circuit runs cost seconds each, so they are computed once per
module and shared across assertions.
"""

import numpy as np
import pytest

from repro.geometry import metrics, se3
from repro.io import SceneSuite, default_test_model
from repro.mapping import (
    Keyframe,
    LoopCloser,
    StreamingMapper,
    voxel_map,
    urban_loop_mapper_config,
    urban_loop_pipeline,
)
from repro.registration import Pipeline, run_odometry

N_FRAMES = 48

# The shared reference configuration (repro.mapping.presets): the same
# pipeline and mapper the example, bench, and golden scenario run.
make_pipeline = urban_loop_pipeline
mapper_config = urban_loop_mapper_config


@pytest.fixture(scope="module")
def urban_loop():
    suite = SceneSuite.default(n_frames=N_FRAMES, model=default_test_model())
    return suite.sequence("urban_loop")


@pytest.fixture(scope="module")
def open_loop(urban_loop):
    return run_odometry(urban_loop, make_pipeline())


@pytest.fixture(scope="module")
def mapped(urban_loop):
    """One full mapping run, with pipeline preprocess calls and fused
    map views counted while it runs."""
    calls = {"preprocess": 0, "fused_view": 0}
    counted = {
        "preprocess": (Pipeline, Pipeline.preprocess),
        "fused_view": (voxel_map.VoxelMap, voxel_map.VoxelMap._fused_view),
    }

    def counting(name, original):
        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        return wrapper

    for name, (owner, original) in counted.items():
        setattr(owner, original.__name__, counting(name, original))
    try:
        mapper = StreamingMapper(make_pipeline(), mapper_config())
        for frame in urban_loop.frames:
            mapper.push(frame)
    finally:
        for owner, original in counted.values():
            setattr(owner, original.__name__, original)
    return mapper, calls


class TestLoopClosureAcceptance:
    def test_detects_loop_closures(self, mapped):
        mapper, _ = mapped
        assert mapper.stats.n_loop_closures >= 1
        assert len(mapper.loop_closures) == mapper.stats.n_loop_closures
        assert mapper.graph.n_loop_edges == mapper.stats.n_loop_closures

    def test_ate_halves_versus_open_loop(self, mapped, open_loop, urban_loop):
        mapper, _ = mapped
        ate_open = metrics.absolute_trajectory_error(
            open_loop.trajectory, urban_loop.poses
        )
        ate_mapped = metrics.absolute_trajectory_error(
            mapper.trajectory(), urban_loop.poses
        )
        assert ate_mapped <= 0.5 * ate_open

    def test_each_frame_preprocessed_exactly_once(self, mapped):
        _, calls = mapped
        assert calls["preprocess"] == N_FRAMES

    def test_map_fused_only_when_read(self, mapped):
        """Pushing frames never builds the fused map view: keyframes are
        inserted as tables, and the view is fused when the map is read."""
        _, calls = mapped
        assert calls["fused_view"] == 0

    def test_loop_measurements_beat_drift(self, mapped, urban_loop):
        """Verified closures are more accurate than the drift they fix."""
        mapper, _ = mapped
        origin = se3.invert(urban_loop.poses[0])
        truth = {
            k.index: se3.compose(origin, urban_loop.poses[k.frame_index])
            for k in mapper.keyframes
        }
        for closure in mapper.loop_closures:
            want = se3.compose(
                se3.invert(truth[closure.target_index]),
                truth[closure.source_index],
            )
            rotation, translation = se3.transform_distance(
                want, closure.relative
            )
            assert translation < 1.5
            assert np.degrees(rotation) < 10.0

    def test_verified_closures_span_the_laps(self, mapped):
        """Closures connect second-lap keyframes back to the first lap."""
        mapper, _ = mapped
        gap = mapper.config.loop_closure.min_keyframe_gap
        for closure in mapper.loop_closures:
            assert closure.source_index - closure.target_index > gap


class TestOpenLoopEquivalence:
    def test_disabled_loop_closure_is_bit_identical(self, urban_loop, open_loop):
        mapper = StreamingMapper(
            make_pipeline(), mapper_config(enable_loop_closure=False)
        )
        for frame in urban_loop.frames:
            mapper.push(frame)
        trajectory = mapper.trajectory()
        assert len(trajectory) == len(open_loop.trajectory)
        for ours, reference in zip(trajectory, open_loop.trajectory):
            assert np.array_equal(ours, reference)
        assert mapper.stats.n_loop_closures == 0
        assert mapper.stats.n_optimizations == 0

    def test_relatives_match_streaming_odometry(self, mapped, open_loop):
        """Loop closure never touches the odometry front end."""
        mapper, _ = mapped
        for ours, reference in zip(
            mapper.odometry.relatives, open_loop.relatives
        ):
            assert np.array_equal(ours, reference)


class TestMapperMechanics:
    def test_push_protocol(self, urban_loop):
        mapper = StreamingMapper(
            make_pipeline(), mapper_config(enable_loop_closure=False)
        )
        assert mapper.push(urban_loop.frames[0]) is None
        assert mapper.push(urban_loop.frames[1]) is not None
        assert mapper.n_frames == 2
        assert len(mapper.trajectory()) == 2

    def test_keyframe_bookkeeping(self, mapped):
        mapper, _ = mapped
        assert mapper.stats.n_keyframes == len(mapper.keyframes)
        assert mapper.keyframes[0].frame_index == 0
        indices = [k.index for k in mapper.keyframes]
        assert indices == list(range(len(mapper.keyframes)))
        frames = [k.frame_index for k in mapper.keyframes]
        assert frames == sorted(frames)
        assert len(mapper.keyframe_poses()) == len(mapper.keyframes)

    def test_keyframes_reuse_front_end_states(self, mapped):
        """Keyframe clouds are the front end's, not re-derived copies."""
        mapper, _ = mapped
        for keyframe in mapper.keyframes:
            assert keyframe.state.cloud.has_normals
            assert keyframe.state.index is not None

    def test_global_map_accounts_every_keyframe_point(self, mapped):
        mapper, _ = mapped
        expected = sum(len(k.state.cloud) for k in mapper.keyframes)
        assert mapper.map.n_points == expected
        cloud = mapper.global_map()
        assert len(cloud) == mapper.map.n_voxels
        assert int(cloud.get_attribute("count").sum()) == expected

    def test_map_is_reanchored_after_optimization(self, mapped):
        """Map contributions sit at the optimized keyframe poses."""
        mapper, _ = mapped
        assert mapper.stats.n_optimizations >= 1
        assert mapper.stats.n_reanchored >= 1
        for keyframe, pose in zip(mapper.keyframes, mapper.keyframe_poses()):
            recorded_pose = mapper.map._keyframes[keyframe.index].pose
            rotation, translation = se3.transform_distance(recorded_pose, pose)
            assert translation < voxel_map._REANCHOR_TRANSLATION_TOL + 1e-9
        assert mapper.stats.loop_seconds > 0.0
        assert mapper.stats.optimize_seconds > 0.0
        # Re-anchoring is accounted separately from the solver.
        assert mapper.stats.reanchor_seconds > 0.0

    def test_trajectory_is_anchored_to_keyframes(self, mapped):
        """Non-keyframe poses ride their reference keyframe's correction."""
        mapper, _ = mapped
        trajectory = mapper.trajectory()
        keyframe_poses = mapper.keyframe_poses()
        for keyframe in mapper.keyframes:
            assert np.array_equal(
                trajectory[keyframe.frame_index],
                keyframe_poses[keyframe.index],
            )

    def test_stats_summary_mentions_the_essentials(self, mapped):
        mapper, _ = mapped
        text = mapper.stats.summary()
        assert "keyframes" in text
        assert "loop closure" in text


class TestLoopVerification:
    def test_icp_seeded_with_the_estimate(self, lidar_sequence, monkeypatch):
        """Verification matches the keyframes' cached states, seeded with
        the estimated relative pose, and leaves both states as cached."""
        pipeline = make_pipeline()
        source, target = (
            Keyframe(
                index=index,
                frame_index=index,
                odometry_pose=lidar_sequence.poses[index],
                state=pipeline.preprocess(lidar_sequence.frames[index]),
            )
            for index in (1, 0)
        )
        states = (source.state, target.state)
        _, _, estimate = lidar_sequence.pair(0)
        matches = []
        original = Pipeline.match

        def recording(self, *args, **kwargs):
            matches.append((args, kwargs))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Pipeline, "match", recording)
        LoopCloser(pipeline).verify(source, target, estimate)
        assert len(matches) == 1
        (source_state, target_state), kwargs = matches[0]
        assert source_state is states[0]
        assert target_state is states[1]
        assert np.array_equal(kwargs["initial"], estimate)
        assert source.state is states[0]
        assert target.state is states[1]


class TestTelemetry:
    """Span-tree and counter view of a traced mapping run.

    Uses a half-length circuit (one lap revisit still closes a loop)
    so the traced run stays cheap next to the module fixtures.
    """

    @pytest.fixture(scope="class")
    def traced(self):
        from repro.telemetry import Tracer

        suite = SceneSuite.default(
            n_frames=N_FRAMES // 2, model=default_test_model()
        )
        sequence = suite.sequence("urban_loop")
        tracer = Tracer()
        mapper = StreamingMapper(make_pipeline(), mapper_config(), tracer=tracer)
        for frame in sequence.frames:
            mapper.push(frame)
        return tracer, mapper

    def test_one_frame_span_per_push(self, traced):
        tracer, mapper = traced
        assert [root.name for root in tracer.roots] == (
            ["frame"] * mapper.n_frames
        )

    def test_hierarchy_reaches_every_subsystem(self, traced):
        tracer, mapper = traced
        names = {
            span.name for root in tracer.roots for span in root.walk()
        }
        structural = {
            "frame",
            "bootstrap",
            "pair",
            "preprocess",
            "match",
            "icp",
            "loop_closure",
            "verify",
            "pose_graph.optimize",
            "re_anchor",
        }
        assert structural <= names

    def test_optimize_spans_annotated_with_solver_mode(self, traced):
        tracer, mapper = traced
        optimizes = [
            span
            for root in tracer.roots
            for span in root.walk()
            if span.name == "pose_graph.optimize"
        ]
        assert len(optimizes) == mapper.stats.n_optimizations
        for span in optimizes:
            assert span.args["mode"] in (
                "batch",
                "incremental",
                "incremental+batch",
            )
            assert span.args["n_active_nodes"] <= span.args["n_nodes"]
            assert isinstance(span.args["converged"], bool)

    def test_counters_match_mapper_stats(self, traced):
        tracer, mapper = traced
        counters = tracer.counters
        assert counters.get("keyframes") == mapper.stats.n_keyframes
        assert counters.get("loop_closures") == mapper.stats.n_loop_closures
        assert counters.get("optimizations") == mapper.stats.n_optimizations
        assert counters.get("reanchored_voxels") == mapper.stats.n_reanchored
        assert mapper.stats.n_loop_closures >= 1  # the scenario closes

    def test_traced_run_matches_untraced(self, traced):
        tracer, mapper = traced
        suite = SceneSuite.default(
            n_frames=N_FRAMES // 2, model=default_test_model()
        )
        sequence = suite.sequence("urban_loop")
        untraced = StreamingMapper(make_pipeline(), mapper_config())
        for frame in sequence.frames:
            untraced.push(frame)
        assert all(
            np.array_equal(ours, reference)
            for ours, reference in zip(
                mapper.trajectory(), untraced.trajectory()
            )
        )
