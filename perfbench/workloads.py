"""The benchmark's four workloads over the public API.

A workload is a list of *units* run in order; one pass over all units is
the repeatable piece of work.  Each unit has a set-up (timed as set-up,
not as an op), a list of steps, and a final check.  A step is one *op*:

* ``odometry_frontend``, ``mapping_loop``, ``adverse_recovery``: a unit is
  one frame sequence, the set-up constructs the driver and pushes the
  bootstrap frame, and each later frame pushed is an op;
* ``accel_trace``: a unit is one frame pair, the set-up builds the pair's
  two-stage trees, and each op captures one query batch with
  ``build_workload`` and replays it in ``TigrisSimulator.simulate``.

Inputs are synthesized from the seed before anything is timed.  On
``odometry_frontend`` and ``mapping_loop`` the seed does not change the
frames: those two pipelines' results swing between runs that converge
and runs that diverge under *any* input change, a fresh noise draw or
even a different point order (see README.md), so they keep the
validated sequences.  On ``adverse_recovery`` and ``accel_trace``, whose
results do not swing, a non-zero seed shuffles the point order of every
frame: a LiDAR driver may deliver points in any order, and the program
must give the same answer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

import repro.accel.workload as accel_workload
from repro.accel.simulator import TigrisSimulator
from repro.core.twostage import TwoStageKDTree
from repro.geometry import metrics
from repro.io import SceneSuite, default_test_model, make_sequence
from repro.mapping import StreamingMapper, urban_loop_mapper_config, urban_loop_pipeline
from repro.profiling import StageProfiler
from repro.registration import (
    DescriptorConfig,
    ICPConfig,
    KeypointConfig,
    NormalEstimationConfig,
    Pipeline,
    PipelineConfig,
    RejectionConfig,
    RPCEConfig,
    StreamingOdometry,
)
from repro.registration.health import HealthConfig
from repro.registration.odometry import RecoveryConfig


def frontend_pipeline() -> Pipeline:
    """The full front end of ``benchmarks/bench_stream_odometry.py``:
    NE r=0.75, Harris, FPFH, KPCE, seeded RANSAC, point-to-plane ICP."""
    return Pipeline(
        PipelineConfig(
            normals=NormalEstimationConfig(radius=0.75),
            keypoints=KeypointConfig(method="harris", params={"radius": 1.0}),
            descriptor=DescriptorConfig(method="fpfh", radius=1.5),
            rejection=RejectionConfig(
                method="ransac", ransac_threshold=0.8, ransac_iterations=150
            ),
            icp=ICPConfig(
                rpce=RPCEConfig(max_distance=2.0),
                error_metric="point_to_plane",
                max_iterations=6,
            ),
        )
    )


def recovery_config() -> RecoveryConfig:
    """The recovery ladder of ``benchmarks/bench_robustness.py``."""
    return RecoveryConfig(
        health=HealthConfig(
            max_rmse=None,
            max_median_residual=0.25,
            prior_translation_tolerance=0.5,
            prior_rotation_tolerance_deg=10.0,
        )
    )


def shuffled(frames, seed: int):
    """Every frame with its points in a seeded order; seed 0 keeps the order."""
    if seed == 0:
        return list(frames)
    rng = np.random.default_rng(seed)
    return [frame.select(rng.permutation(len(frame))) for frame in frames]


@dataclass
class Final:
    """What one completed unit produced, for the checks and cross-checks."""

    failures: list[str]
    digest: bytes
    ate: float | None = None
    stats: object = None
    profiler: StageProfiler = field(default_factory=StageProfiler)
    loop_seconds: float = 0.0


@dataclass
class Unit:
    label: str
    frames: list
    poses: list | None = None


class Streaming:
    """A streaming driver pushed frame by frame over one or more sequences."""

    def __init__(self, units: list[Unit], make_driver):
        self.units = units
        self.make_driver = make_driver

    def steps(self, unit: Unit):
        return unit.frames[1:]

    def setup(self, unit: Unit):
        driver = self.make_driver()
        driver.push(unit.frames[0])
        return driver

    @staticmethod
    def _odometry(driver) -> StreamingOdometry:
        return driver.odometry if isinstance(driver, StreamingMapper) else driver

    def op(self, driver, frame):
        result = driver.push(frame)
        actions = self._odometry(driver).stats.pair_actions[-1]
        ok = bool(result.success) and "bridge" not in actions
        return result.transformation, ok

    def finish(self, driver, unit: Unit, outputs) -> Final:
        odometry = self._odometry(driver)
        failures = []
        if isinstance(driver, StreamingMapper):
            trajectory = driver.trajectory()
            profiler = StageProfiler()
            profiler.merge(driver.odometry.profiler)
            profiler.merge(driver.loop_profiler)
            loop_seconds = driver.stats.loop_seconds
            if driver.stats.n_loop_closures < 1:
                failures.append(f"{unit.label}: no verified loop closure")
        else:
            trajectory = driver.result().trajectory
            profiler, loop_seconds = driver.profiler, 0.0
        poses = np.stack(trajectory)
        if len(trajectory) != len(unit.frames):
            failures.append(
                f"{unit.label}: trajectory has {len(trajectory)} poses "
                f"for {len(unit.frames)} frames"
            )
        if not np.all(np.isfinite(poses)):
            failures.append(f"{unit.label}: non-finite trajectory pose")
        ate = metrics.absolute_trajectory_error(trajectory, unit.poses)
        return Final(
            failures=failures,
            digest=poses.tobytes(),
            ate=ate,
            stats=odometry.stats,
            profiler=profiler,
            loop_seconds=loop_seconds,
        )


# One accelerator op per query batch of a registration pass: the normal
# estimation radius pass over each frame, then the RPCE NN rounds.
NE_RADIUS = 0.75
RPCE_ROUNDS = 5
LEAF_SIZE = 128


class AccelTrace:
    """Captured search batches replayed on the accelerator model."""

    def __init__(self, units: list[Unit]):
        self.units = units
        self.simulator = TigrisSimulator()

    def steps(self, unit: Unit):
        return ["ne_source", "ne_target"] + ["rpce"] * RPCE_ROUNDS

    def setup(self, unit: Unit):
        source, target = (frame.points for frame in unit.frames)
        return {
            "source": (source, TwoStageKDTree.from_leaf_size(source, LEAF_SIZE)),
            "target": (target, TwoStageKDTree.from_leaf_size(target, LEAF_SIZE)),
        }

    def op(self, trees, step):
        source, source_tree = trees["source"]
        target, target_tree = trees["target"]
        if step == "ne_source":
            batch = dict(points=source, queries=source, kind="radius", tree=source_tree)
        elif step == "ne_target":
            batch = dict(points=target, queries=target, kind="radius", tree=target_tree)
        else:
            batch = dict(points=target, queries=source, kind="nn", tree=target_tree)
        capture = accel_workload.build_workload(radius=NE_RADIUS, name=step, **batch)
        result = self.simulator.simulate(capture)
        ok = capture.n_queries == len(batch["queries"]) and result.cycles > 0
        return result.cycles, ok

    def finish(self, trees, unit: Unit, outputs) -> Final:
        failures = []
        rounds = outputs[2:]
        if len(set(rounds)) != 1:
            failures.append(f"{unit.label}: RPCE rounds gave cycles {rounds}")
        return Final(failures=failures, digest=np.asarray(outputs, np.int64).tobytes())


NAMES = ("odometry_frontend", "mapping_loop", "adverse_recovery", "accel_trace")


def build(name: str, seed: int):
    """Synthesize the named workload's inputs from ``seed``."""
    if name == "odometry_frontend":
        sequence = SceneSuite.default(n_frames=35, scenes=("urban",)).sequence("urban")
        units = [Unit("urban", sequence.frames, sequence.poses)]
        return Streaming(
            units, lambda: StreamingOdometry(frontend_pipeline(), seed_with_previous=False)
        )
    if name == "mapping_loop":
        suite = SceneSuite.default(n_frames=48, scenes=("urban_loop",))
        sequence = suite.sequence("urban_loop")
        units = [Unit("urban_loop", sequence.frames, sequence.poses)]
        return Streaming(
            units,
            lambda: StreamingMapper(urban_loop_pipeline(), urban_loop_mapper_config()),
        )
    if name == "adverse_recovery":
        suite = SceneSuite.adverse(n_frames=8)
        units = [
            Unit(label, shuffled(sequence.frames, seed), sequence.poses)
            for label, sequence in suite.items()
        ]
        return Streaming(
            units, lambda: StreamingOdometry(frontend_pipeline(), recovery=recovery_config())
        )
    if name == "accel_trace":
        # Three quarters of the default azimuth resolution (~2.1k points
        # a frame) fits 100 ops of per-query Python traversal in a run.
        model = default_test_model(azimuth_steps=135)
        frames = shuffled(make_sequence(n_frames=4, seed=3, model=model).frames, seed)
        units = [
            Unit(f"pair{index}", [frames[index + 1], frames[index]])
            for index in range(len(frames) - 1)
        ]
        return AccelTrace(units)
    raise KeyError(name)


def digest(finals: list[Final]) -> str:
    """SHA-256 over every unit's result (trajectory poses or cycle list)."""
    sha = hashlib.sha256()
    for final in finals:
        sha.update(final.digest)
    return sha.hexdigest()
