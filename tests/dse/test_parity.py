"""Shared-artifact exploration must be bit-identical to ``Pipeline.register``.

The explorer preprocesses each frame once per (fingerprint, scene)
instead of twice per pair per config, and with ``workers > 1`` it
evaluates fingerprint groups in other processes.  Neither may change
what a configuration reports: errors, per-pair transforms, ICP
iteration counts, per-pair search/stage stats and profiler stage call
counts are pinned bitwise against the oracle, :func:`register_chain`,
which registers every raw pair with ``Pipeline.register``.  Two scenes
and two search backends, for 1, 2 and 4 workers.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.dse import FrameStateCache, explore
from repro.dse.explorer import _evaluate_group
from repro.geometry import metrics
from repro.io import SceneSuite, default_test_model
from repro.profiling import StageProfiler
from repro.registration import (
    ICPConfig,
    KeypointConfig,
    Pipeline,
    PipelineConfig,
    RPCEConfig,
    SearchConfig,
)

BACKENDS = ("twostage", "bruteforce")


def parity_config(
    backend: str, max_iterations: int, skip: bool = False
) -> PipelineConfig:
    return PipelineConfig(
        keypoints=KeypointConfig(
            method="uniform", params={"voxel_size": 3.0}, min_keypoints=8
        ),
        icp=ICPConfig(
            rpce=RPCEConfig(max_distance=1.5), max_iterations=max_iterations
        ),
        search=SearchConfig(backend=backend),
        voxel_downsample=1.2,
        skip_initial_estimation=skip,
    )


@pytest.fixture(scope="module")
def suite() -> SceneSuite:
    """Two scenes (feature-rich outdoor + indoor), scaled-down scans."""
    return SceneSuite.default(
        n_frames=3,
        model=default_test_model(azimuth_steps=120, channels=12),
        scenes=("urban", "room"),
    )


@pytest.fixture(scope="module")
def configs() -> dict[str, PipelineConfig]:
    """Two backends x (two shared-front-end configs + one skip-initial).

    Per backend the short and long configs differ only in a pairwise
    knob, so they share one fingerprint and the explorer reuses each
    frame's artifacts across both.  The skip config plans no nested
    radius reuse, so its fingerprint differs and it is a group of its
    own.
    """
    named = {}
    for backend in BACKENDS:
        named[f"{backend}-short"] = parity_config(backend, 3)
        named[f"{backend}-long"] = parity_config(backend, 8)
        named[f"{backend}-skip"] = parity_config(backend, 3, skip=True)
    return named


def register_chain(name, config, sequence, scene):
    """The oracle: ``Pipeline.register`` on every raw pair, chained.

    Pairs are unseeded, as the explorer runs them; one profiler
    accumulates every register call, so each interior frame's
    preprocess is charged to both pairs that use it.
    """
    pipeline = Pipeline(config)
    profiler = StageProfiler()
    relatives, pair_stats, icp_iterations = [], [], []
    for source, target, _ in sequence.pairs():
        result = pipeline.register(source, target, profiler=profiler)
        relatives.append(result.transformation)
        pair_stats.append(result.stage_stats)
        icp_iterations.append(result.icp.iterations)
    errors = metrics.kitti_sequence_errors(
        metrics.trajectory_from_relative(relatives),
        sequence.poses[: len(relatives) + 1],
    )
    return SimpleNamespace(
        name=name,
        scene=scene,
        translational_error=errors.translational,
        rotational_error=errors.rotational,
        detail={
            "errors": errors,
            "relatives": relatives,
            "pair_stats": pair_stats,
            "icp_iterations": icp_iterations,
            "profiler": profiler,
        },
    )


@pytest.fixture(scope="module")
def oracle(configs, suite):
    """scene -> the oracle's points, in configuration order."""
    return {
        scene: [
            register_chain(name, config, sequence, scene)
            for name, config in configs.items()
        ]
        for scene, sequence in suite.items()
    }


@pytest.fixture(scope="module")
def report(configs, suite):
    return explore(configs, suite)


@pytest.fixture(scope="module")
def parallel_report(configs, suite):
    return explore(configs, suite, workers=2)


def assert_results_identical(reference, candidate):
    """Everything except wall-clock must match bitwise."""
    assert reference.name == candidate.name
    assert reference.scene == candidate.scene
    assert reference.translational_error == candidate.translational_error
    assert reference.rotational_error == candidate.rotational_error
    assert reference.detail["errors"] == candidate.detail["errors"]
    assert len(reference.detail["relatives"]) == len(candidate.detail["relatives"])
    for a, b in zip(reference.detail["relatives"], candidate.detail["relatives"]):
        assert np.array_equal(a, b)
    assert reference.detail["pair_stats"] == candidate.detail["pair_stats"]
    assert reference.detail["icp_iterations"] == candidate.detail["icp_iterations"]
    # Shared preprocessing is attributed per config exactly as the
    # register chain spends it: same stage set, same call counts
    # (interior frames charged to both consuming pairs).
    reference_stages = reference.detail["profiler"].stages
    candidate_stages = candidate.detail["profiler"].stages
    assert set(reference_stages) == set(candidate_stages)
    for stage, timing in reference_stages.items():
        assert timing.calls == candidate_stages[stage].calls, (
            reference.name,
            stage,
        )


def assert_matches_oracle(oracle, report):
    assert report.scenes == tuple(oracle)
    for scene, expected in oracle.items():
        points = report.scene_results[scene]
        assert [r.name for r in points] == [r.name for r in expected]
        for a, b in zip(expected, points):
            assert_results_identical(a, b)


class TestCachedParity:
    def test_bit_identical_to_register_chain(self, oracle, report):
        assert_matches_oracle(oracle, report)

    def test_aggregate_errors_match(self, oracle, report):
        """Cross-scene aggregates are the mean of the oracle's errors."""
        for index, aggregate in enumerate(report.results):
            members = [points[index] for points in oracle.values()]
            assert aggregate.name == members[0].name
            assert aggregate.translational_error == float(
                np.mean([m.translational_error for m in members])
            )
            assert aggregate.rotational_error == float(
                np.mean([m.rotational_error for m in members])
            )


class TestParallelParity:
    def test_bit_identical_to_register_chain(self, oracle, parallel_report):
        assert_matches_oracle(oracle, parallel_report)

    def test_worker_count_does_not_change_results(self, oracle, configs, suite):
        assert_matches_oracle(oracle, explore(configs, suite, workers=4))


class TestFrameStateCache:
    def test_hit_miss_accounting(self):
        cache = FrameStateCache()
        builds = []
        for _ in range(3):
            cache.get(("fp", "urban", 0), lambda: builds.append(1) or ("s", "p"))
        assert cache.misses == 1
        assert cache.hits == 2
        assert len(builds) == 1
        assert len(cache) == 1

    def test_group_reuses_states_across_calls(self, suite):
        """A second evaluation of the same fingerprint/scene reuses the
        cached FrameStates (object identity, zero extra preprocesses)."""
        sequence = suite.sequence("urban")
        named = {"short": parity_config("twostage", 3)}
        cache = FrameStateCache()
        first = _evaluate_group(named, sequence, "urban", None, cache)
        misses_after_first = cache.misses
        second = _evaluate_group(named, sequence, "urban", None, cache)
        assert cache.misses == misses_after_first
        assert cache.hits == misses_after_first
        assert_results_identical(first[0], second[0])
