"""Golden end-to-end regression values.

Pins the quickstart registration transform, a short urban-scene
odometry trajectory, and a full ``urban_loop`` mapping run (keyframe
count, loop-closure edges, post-optimization trajectory) to stored
golden values, so perf refactors (like the streaming split) cannot
silently change results.  All scenarios are fully seeded and
deterministic; discrete outcomes (iteration counts, correspondence
counts, search-work counters) are compared exactly, while
floating-point values use a tight tolerance to absorb last-ulp
differences across BLAS/numpy builds.

Regenerate after an *intentional* accuracy change:

    PYTHONPATH=src python tests/integration/test_golden_values.py --regenerate

Re-pin history: the vectorized ragged-neighborhood kernels (PR 5)
assemble neighborhood covariances from chunked raw moments in
query-local coordinates instead of per-point mean-centered BLAS
matmuls.  Both formulations are deterministic and agree to ~1e-13,
but for a handful of grazing-angle points whose normal is
perpendicular to the viewpoint ray (orientation dot product ~1e-15)
the last-ulp difference flips the normal's *sign* tie-break.  In the
quickstart scenario that moved one RANSAC inlier (11 -> 10) and
shifted the KPCE/RPCE nodes_visited work counters by ~0.1%; the final
transform and errors changed at the 1e-12 level and every other
discrete outcome (iterations, keyframe schedule, loop edges) is
unchanged.  The golden file pins the segment-kernel rule.

Re-pin history: the vectorized canonical-tree traversal (PR 6)
unified the canonical KD-tree's tie rule with the bruteforce/batch
contract — nn/knn now keep the lexicographically smallest
(distance, index) pair instead of the first candidate the recursion
happened to visit, and squared distances accumulate per coordinate
(matching the batch kernels) instead of via ``diff @ diff``.  KPCE
searches 33-d FPFH descriptors with the canonical backend, where
identical local geometry manufactures exact descriptor-distance
ties; the unified rule flips a handful of tied correspondences
(verified index-for-index against bruteforce), moving one RANSAC
inlier (10 -> 11), the initial estimate at the 1e-5 level, the KPCE/
RPCE nodes_visited counters by <0.1%, and the final transform at the
1e-12 level.  The same PR also introduced nested-radius search reuse:
preprocess runs ONE all-points radius search at the largest planned
radius and derives every nested stage neighborhood by filtering the
cached CSR result — bit-identical artifacts (normals, keypoints,
descriptors; asserted by tests/registration/test_radius_reuse.py),
but honestly re-attributed work counters.  In the quickstart scenario
Normal Estimation now executes the inflated search (nodes_visited
1.02M -> 1.37M, results_returned counts the retained radius-1.0
neighborhoods) while Descriptor Calculation's 570k node visits drop
to zero (all queries served from the cache) — a net ~14% reduction in
counted distance computations and 3 of 4 search batches eliminated.
The odometry and mapping scenarios (skip_initial_estimation, where no
reuse is planned, and no KPCE descriptor search) are bit-unchanged.

Re-pin history: certified nearest-neighbor reuse across ICP
iterations.  On the two-stage tree, every RPCE batch after an ICP
call's first keeps each answer that a triangle-inequality certificate
proves unchanged since the row's last search, and searches only the
other rows (see repro.core.twostage).  Results are bit-identical, and
certified rows still charge their queries and results, but no node
visits.  In the quickstart scenario RPCE nodes_visited fell from
2,165,001 to 693,642.  That one value was edited by hand, not
regenerated; every other golden byte is unchanged.
"""

import json
import os

import numpy as np
import pytest

from repro.geometry import metrics
from repro.io import make_sequence
from repro.registration import (
    ICPConfig,
    KeypointConfig,
    Pipeline,
    PipelineConfig,
    RPCEConfig,
    run_odometry,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_values.json")
FLOAT_TOL = dict(rtol=1e-6, atol=1e-8)


# ----------------------------------------------------------------------
# The two pinned scenarios.
# ----------------------------------------------------------------------


def quickstart_scenario() -> dict:
    """The examples/quickstart.py registration, field for field."""
    sequence = make_sequence(n_frames=2, seed=42, step=1.0)
    source, target, ground_truth = sequence.pair(0)
    pipeline = Pipeline(
        PipelineConfig(
            keypoints=KeypointConfig(method="uniform", params={"voxel_size": 3.0}),
            icp=ICPConfig(
                rpce=RPCEConfig(max_distance=2.0),
                error_metric="point_to_plane",
                max_iterations=25,
            ),
        )
    )
    result = pipeline.register(source, target)
    rot_err, trans_err = metrics.pair_errors(result.transformation, ground_truth)
    return {
        "transformation": result.transformation.tolist(),
        "initial_transformation": result.initial_transformation.tolist(),
        "rotation_error_deg": rot_err,
        "translation_error_m": trans_err,
        "icp_iterations": result.icp.iterations,
        "icp_rmse": result.icp.rmse,
        "icp_converged": result.icp.converged,
        "n_correspondences": result.icp.n_correspondences,
        "n_source_keypoints": result.n_source_keypoints,
        "n_target_keypoints": result.n_target_keypoints,
        "n_feature_correspondences": result.n_feature_correspondences,
        "n_inlier_correspondences": result.n_inlier_correspondences,
        "search_counters": {
            stage: [stats.queries, stats.nodes_visited, stats.results_returned]
            for stage, stats in result.stage_stats.items()
        },
    }


def odometry_scenario() -> dict:
    """A short urban-scene odometry run (4 frames, seeded pipeline)."""
    sequence = make_sequence(n_frames=4, seed=7, step=1.0, yaw_rate=0.01)
    pipeline = Pipeline(
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
    result = run_odometry(sequence, pipeline)
    return {
        "trajectory": [pose.tolist() for pose in result.trajectory],
        "relatives": [rel.tolist() for rel in result.relatives],
        "translational_percent": result.errors.translational_percent,
        "rotational_deg_per_m": result.errors.rotational,
        "per_pair_errors": [list(pair) for pair in result.per_pair_errors],
        "icp_iterations": [r.icp.iterations for r in result.pair_results],
        "rpce_queries": [
            r.stage_stats["RPCE"].queries for r in result.pair_results
        ],
    }


def mapping_scenario() -> dict:
    """A full urban_loop SLAM run (48 frames, 2 laps, loop closure).

    Uses the shared reference configuration
    (:mod:`repro.mapping.presets`) of the mapping acceptance tests
    and example, pinning the subsystem end to end: the keyframe
    schedule, the loop-closure edges, the back end's solver iterations
    and re-anchored keyframes, the optimized trajectory, and the drift
    reduction itself.  The map sizes are read from the mapper's voxel
    map.  The open-loop ATE comes from the mapper's own odometry chain
    (bit-identical to ``run_odometry`` — asserted in
    ``tests/mapping/``), so the sequence is registered once.
    """
    from repro.geometry import metrics
    from repro.io import SceneSuite, default_test_model
    from repro.mapping import (
        StreamingMapper,
        urban_loop_mapper_config,
        urban_loop_pipeline,
    )

    suite = SceneSuite.default(n_frames=48, model=default_test_model())
    sequence = suite.sequence("urban_loop")
    mapper = StreamingMapper(urban_loop_pipeline(), urban_loop_mapper_config())
    for frame in sequence.frames:
        mapper.push(frame)

    open_loop = metrics.trajectory_from_relative(mapper.odometry.relatives)
    stats = mapper.stats
    return {
        "n_keyframes": stats.n_keyframes,
        "keyframe_frames": [k.frame_index for k in mapper.keyframes],
        "n_loop_closures": stats.n_loop_closures,
        "loop_edges": [
            [c.target_index, c.source_index] for c in mapper.loop_closures
        ],
        "n_optimizations": stats.n_optimizations,
        # The back end's work: Gauss-Newton iterations over all solves
        # and keyframes re-binned into the map after them.
        "optimization_iterations": stats.optimization_iterations,
        "n_reanchored": stats.n_reanchored,
        "n_map_voxels": mapper.map.n_voxels,
        "n_map_points": mapper.map.n_points,
        "trajectory": [pose.tolist() for pose in mapper.trajectory()],
        "ate_open_loop_m": metrics.absolute_trajectory_error(
            open_loop, sequence.poses
        ),
        "ate_mapped_m": metrics.absolute_trajectory_error(
            mapper.trajectory(), sequence.poses
        ),
    }


SCENARIOS = {
    "quickstart": quickstart_scenario,
    "odometry_urban": odometry_scenario,
    "mapping_urban_loop": mapping_scenario,
}


# ----------------------------------------------------------------------
# Comparison: exact for ints/bools/str, tight tolerance for floats.
# ----------------------------------------------------------------------


def assert_matches(actual, golden, path=""):
    if isinstance(golden, dict):
        assert isinstance(actual, dict), f"{path}: type changed"
        assert set(actual) == set(golden), f"{path}: keys changed"
        for key in golden:
            assert_matches(actual[key], golden[key], f"{path}.{key}")
    elif isinstance(golden, list):
        assert len(actual) == len(golden), f"{path}: length changed"
        for i, (a, g) in enumerate(zip(actual, golden)):
            assert_matches(a, g, f"{path}[{i}]")
    elif isinstance(golden, bool) or isinstance(golden, (int, str)):
        assert actual == golden, f"{path}: {actual!r} != golden {golden!r}"
    else:
        np.testing.assert_allclose(
            actual, golden, err_msg=f"{path} drifted", **FLOAT_TOL
        )


@pytest.fixture(scope="module")
def golden():
    if not os.path.exists(GOLDEN_PATH):
        pytest.fail(
            f"golden file missing: {GOLDEN_PATH} — run this module with "
            "--regenerate to create it"
        )
    with open(GOLDEN_PATH, encoding="utf-8") as f:
        return json.load(f)


class TestGoldenValues:
    def test_quickstart_registration_pinned(self, golden):
        assert_matches(
            quickstart_scenario(), golden["quickstart"], "quickstart"
        )

    def test_urban_odometry_trajectory_pinned(self, golden):
        assert_matches(
            odometry_scenario(), golden["odometry_urban"], "odometry_urban"
        )

    def test_urban_loop_mapping_pinned(self, golden):
        assert_matches(
            mapping_scenario(),
            golden["mapping_urban_loop"],
            "mapping_urban_loop",
        )


def regenerate() -> None:
    payload = {name: fn() for name, fn in SCENARIOS.items()}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=1)
        f.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--regenerate", action="store_true", help="rewrite the golden file"
    )
    args = parser.parse_args()
    if args.regenerate:
        regenerate()
    else:
        parser.error("nothing to do; pass --regenerate")
