"""Streaming odometry must be bit-identical to chained ``Pipeline.register``.

The per-frame/pairwise split behind :class:`StreamingOdometry` is a
pure refactor of computation *order*: preprocessing a frame once and
reusing its artifacts across two pairs must produce exactly the same
relatives, trajectory, and per-pair search-work counters as preprocessing
it twice.  The oracle, :func:`register_chain`, registers every raw pair
with ``Pipeline.register``, seeded like ``run_odometry``.  These tests
enforce that property across the four synthetic scenes and multiple
search backends; the multi-scene sweep carries the ``slow`` marker (run
with the full CI job, deselect with ``-m "not slow"``).
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.geometry import metrics
from repro.io import (
    highway_scene,
    intersection_scene,
    make_sequence,
    room_scene,
    urban_scene,
)
from repro.registration import (
    ICPConfig,
    KeypointConfig,
    Pipeline,
    PipelineConfig,
    RPCEConfig,
    SearchConfig,
    StreamingOdometry,
    run_odometry,
)
from repro.profiling import StageProfiler
from repro.telemetry import Tracer

SCENES = ("urban", "highway", "intersection", "room")
BACKENDS = ("twostage", "bruteforce")


def scene_sequence(name: str, n_frames: int = 3, seed: int = 5):
    """A short sequence through the named synthetic scene."""
    rng = np.random.default_rng(seed)
    step = 1.0
    if name == "urban":
        scene = urban_scene(rng, length=120.0)
    elif name == "highway":
        scene = highway_scene(rng, length=160.0)
    elif name == "intersection":
        scene = intersection_scene(rng)
    else:
        scene = room_scene()
        step = 0.3  # stay well inside the 10 m room
    return make_sequence(n_frames=n_frames, seed=seed, scene=scene, step=step)


def quick_pipeline(backend: str = "twostage", **overrides) -> Pipeline:
    config = PipelineConfig(
        keypoints=KeypointConfig(
            method="uniform", params={"voxel_size": 3.0}, min_keypoints=8
        ),
        icp=ICPConfig(
            rpce=RPCEConfig(max_distance=2.0),
            error_metric="point_to_plane",
            max_iterations=10,
        ),
        voxel_downsample=1.0,
        search=SearchConfig(backend=backend),
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return Pipeline(config)


def register_chain(sequence, pipeline, seed_with_previous=True):
    """The oracle: ``Pipeline.register`` on every raw pair, chained.

    Pair ``k`` registers frame ``k + 1`` onto frame ``k``, seeded with
    pair ``k - 1``'s transform when ``seed_with_previous`` (the
    constant-velocity prior of ``run_odometry``), so every frame but
    the ends is preprocessed twice.
    """
    profiler = StageProfiler()
    relatives, pair_results = [], []
    for index in range(len(sequence.frames) - 1):
        initial = relatives[-1] if seed_with_previous and relatives else None
        pair_profiler = StageProfiler()
        result = pipeline.register(
            sequence.frames[index + 1],
            sequence.frames[index],
            initial=initial,
            profiler=pair_profiler,
        )
        profiler.merge(pair_profiler)
        relatives.append(result.transformation)
        pair_results.append(result)
    trajectory = metrics.trajectory_from_relative(relatives)
    return SimpleNamespace(
        n_pairs=len(relatives),
        relatives=relatives,
        trajectory=trajectory,
        pair_results=pair_results,
        profiler=profiler,
        errors=metrics.kitti_sequence_errors(
            trajectory, sequence.poses[: len(relatives) + 1]
        ),
    )


def assert_runs_identical(oracle, streaming):
    """Bitwise equality of relatives, trajectory, per-pair stage stats,
    the ICP and initial-estimation fields, and the KITTI errors."""
    assert oracle.n_pairs == streaming.n_pairs
    for a, b in zip(oracle.relatives, streaming.relatives):
        assert np.array_equal(a, b)
    for a, b in zip(oracle.trajectory, streaming.trajectory):
        assert np.array_equal(a, b)
    for ra, rb in zip(oracle.pair_results, streaming.pair_results):
        assert ra.stage_stats == rb.stage_stats
        assert np.array_equal(ra.initial_transformation, rb.initial_transformation)
        assert ra.icp.iterations == rb.icp.iterations
        assert ra.icp.rmse == rb.icp.rmse
        assert ra.n_source_keypoints == rb.n_source_keypoints
        assert ra.n_feature_correspondences == rb.n_feature_correspondences
        assert ra.n_inlier_correspondences == rb.n_inlier_correspondences
    assert oracle.errors.translational == streaming.errors.translational
    assert oracle.errors.rotational == streaming.errors.rotational


class TestStreamingBitIdentity:
    def test_matches_pairwise_fast(self, lidar_sequence):
        """The always-on guard: one scene, default backend, seeded."""
        pipeline = quick_pipeline()
        oracle = register_chain(lidar_sequence, pipeline)
        streaming = run_odometry(lidar_sequence, pipeline)
        assert_runs_identical(oracle, streaming)

    def test_matches_pairwise_unseeded(self, lidar_sequence):
        """Without the constant-velocity prior every pair runs the full
        front end — the heaviest reuse path (features hand over too)."""
        pipeline = quick_pipeline()
        oracle = register_chain(
            lidar_sequence, pipeline, seed_with_previous=False
        )
        streaming = run_odometry(
            lidar_sequence, pipeline, seed_with_previous=False
        )
        assert_runs_identical(oracle, streaming)

    @pytest.mark.slow
    @pytest.mark.parametrize("scene", SCENES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_pairwise_all_scenes(self, scene, backend):
        sequence = scene_sequence(scene)
        pipeline = quick_pipeline(backend=backend)
        oracle = register_chain(sequence, pipeline)
        streaming = run_odometry(sequence, pipeline)
        assert_runs_identical(oracle, streaming)

    @pytest.mark.slow
    @pytest.mark.parametrize("scene", ("urban", "room"))
    def test_full_front_end_all_pairs(self, scene):
        """Initial estimation on every pair exercises keypoint and
        descriptor handoff between consecutive pairs."""
        sequence = scene_sequence(scene)
        pipeline = quick_pipeline()
        oracle = register_chain(sequence, pipeline, seed_with_previous=False)
        streaming = run_odometry(sequence, pipeline, seed_with_previous=False)
        assert_runs_identical(oracle, streaming)

    def test_skip_initial_estimation_mode(self, lidar_sequence):
        pipeline = quick_pipeline(skip_initial_estimation=True)
        oracle = register_chain(lidar_sequence, pipeline)
        streaming = run_odometry(lidar_sequence, pipeline)
        assert_runs_identical(oracle, streaming)

    def test_max_pairs_is_a_prefix_of_the_chain(self, lidar_sequence):
        """Stopping early registers the same leading pairs and scores
        them against the matching prefix of the ground truth."""
        pipeline = quick_pipeline()
        prefix = SimpleNamespace(
            frames=lidar_sequence.frames[:3], poses=lidar_sequence.poses[:3]
        )
        oracle = register_chain(prefix, pipeline)
        streaming = run_odometry(lidar_sequence, pipeline, max_pairs=2)
        assert_runs_identical(oracle, streaming)


class TestStreamingEngine:
    def test_push_protocol(self, lidar_sequence):
        engine = StreamingOdometry(quick_pipeline())
        assert engine.n_frames == 0
        assert engine.push(lidar_sequence.frames[0]) is None
        assert engine.n_frames == 1
        assert engine.n_pairs == 0
        result = engine.push(lidar_sequence.frames[1])
        assert result is not None
        assert result.success
        assert engine.n_pairs == 1
        assert len(engine.pair_seconds) == 1

    def test_result_requires_two_frames(self, lidar_sequence):
        engine = StreamingOdometry(quick_pipeline())
        with pytest.raises(ValueError):
            engine.result()
        engine.push(lidar_sequence.frames[0])
        with pytest.raises(ValueError):
            engine.result()

    def test_state_handoff(self, lidar_sequence):
        """Pair k's source FrameState becomes pair k+1's target."""
        engine = StreamingOdometry(quick_pipeline())
        engine.push(lidar_sequence.frames[0])
        first_state = engine.target_state
        engine.push(lidar_sequence.frames[1])
        second_state = engine.target_state
        assert second_state is not first_state
        engine.push(lidar_sequence.frames[2])
        # The state cached after pair k is reused as pair k+1's target:
        # no re-preprocess happened for that frame (object identity).
        assert engine.target_state is not second_state

    def test_preprocess_happens_once_per_frame(self, lidar_sequence):
        """The whole point: n frames cost n preprocesses, not 2(n-1).

        Counted via tree-construction charges: the streaming profiler
        must record exactly one build per frame (plus per-iteration
        rebuilds RPCE itself performs, absent in this config)."""
        pipeline = quick_pipeline(skip_initial_estimation=True)
        n = len(lidar_sequence.frames)
        oracle = register_chain(lidar_sequence, pipeline)
        streaming = run_odometry(lidar_sequence, pipeline)
        # Normal Estimation stage entries: one per preprocess.
        oracle_calls = oracle.profiler.stages["Normal Estimation"].calls
        streaming_calls = streaming.profiler.stages["Normal Estimation"].calls
        assert oracle_calls == 2 * (n - 1)
        assert streaming_calls == n

    def test_result_is_snapshot(self, lidar_sequence):
        """Later pushes must not mutate an already-returned result."""
        engine = StreamingOdometry(quick_pipeline())
        engine.push(lidar_sequence.frames[0])
        engine.push(lidar_sequence.frames[1])
        early = engine.result(lidar_sequence.poses[:2])
        early_total = early.profiler.total
        engine.push(lidar_sequence.frames[2])
        assert early.n_pairs == 1
        assert len(early.pair_seconds) == 1
        assert early.profiler.total == early_total

    def test_tracer_does_not_change_the_run(self, lidar_sequence):
        """A traced run computes exactly what an untraced one does, and
        records one root span per pushed frame."""
        pipeline = quick_pipeline()
        tracer = Tracer()
        traced = run_odometry(lidar_sequence, pipeline, tracer=tracer)
        plain = run_odometry(lidar_sequence, pipeline)
        assert traced.n_pairs == plain.n_pairs
        for a, b in zip(traced.relatives, plain.relatives):
            assert np.array_equal(a, b)
        for a, b in zip(traced.pair_results, plain.pair_results):
            assert a.stage_stats == b.stage_stats
            assert a.icp.iterations == b.icp.iterations
        assert [root.name for root in tracer.roots] == (
            ["bootstrap"] + ["pair"] * plain.n_pairs
        )
