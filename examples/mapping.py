"""Streaming SLAM: loop-closed 3D reconstruction of a scanned circuit
(paper Sec. 2.2: "registration is key to 3D reconstruction, where a set
of frames are aligned against one another and merged together").

A LiDAR drives laps around a synthetic urban intersection while a
:class:`~repro.mapping.StreamingMapper` ingests the frames one at a
time: streaming odometry registers each frame against its predecessor,
keyframes retain the preprocessed artifacts, revisits are detected by
pose proximity and verified through the registration pipeline, the
SE(3) pose graph redistributes the accumulated drift, and an
incremental voxel map fuses everything into one global cloud, which is
written out as a PCD file.

The printed drift table compares the open-loop odometry trajectory
(chained pairwise registrations — what ``--no-loop-closure`` leaves you
with) against the loop-closed one.

Run:  python examples/mapping.py [--out map.pcd] [--no-loop-closure]
                                 [--trace out.json]

``--trace out.json`` records the run through the telemetry layer and
writes a Chrome trace (Perfetto / ``chrome://tracing``; a ``.jsonl``
path gets the flat run record): one span per frame with odometry
pairs, loop-closure verifications, pose-graph solves and map
re-anchoring nested inside.
"""

import argparse

import numpy as np

from repro.geometry import metrics
from repro.io import (
    default_test_model,
    intersection_scene,
    loop_trajectory,
    make_sequence,
    write_pcd,
)
from repro.mapping import (
    StreamingMapper,
    urban_loop_mapper_config,
    urban_loop_pipeline,
)
from repro.profiling import StageProfiler
from repro.telemetry import Tracer, write_trace


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="urban_loop_map.pcd")
    parser.add_argument("--frames", type=int, default=48,
                        help="frames over the whole circuit")
    parser.add_argument("--laps", type=int, default=2,
                        help="laps around the circuit (keep ~24 frames/lap)")
    parser.add_argument("--no-loop-closure", action="store_true",
                        help="open-loop mapping: show the uncorrected drift")
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Chrome trace (or .jsonl run record) of the run",
    )
    args = parser.parse_args()

    # The SceneSuite's urban_loop workload (intersection scene, seed 11,
    # 2 laps of a radius-5 circuit), with the lap count adjustable.
    rng = np.random.default_rng(11)
    sequence = make_sequence(
        n_frames=args.frames,
        seed=11,
        scene=intersection_scene(rng),
        model=default_test_model(),
        poses=loop_trajectory(args.frames, radius=5.0, laps=args.laps),
    )
    print(
        f"scanned {len(sequence)} frames over {args.laps} lap(s) of the "
        f"urban_loop circuit, ~{len(sequence.frames[0])} points each"
    )

    tracer = Tracer() if args.trace else None
    mapper = StreamingMapper(
        urban_loop_pipeline(),
        urban_loop_mapper_config(
            enable_loop_closure=not args.no_loop_closure
        ),
        tracer=tracer,
    )
    for index, frame in enumerate(sequence.frames):
        result = mapper.push(frame)
        if result is not None and not result.success:
            print(f"  warning: pair {index - 1} -> {index} failed to register")
    print(mapper.stats.summary())

    # The mapper's own odometry chain is the open-loop trajectory — the
    # drift comparison costs nothing extra.
    open_loop = metrics.trajectory_from_relative(mapper.odometry.relatives)
    ate_open = metrics.absolute_trajectory_error(open_loop, sequence.poses)
    ate_map = metrics.absolute_trajectory_error(
        mapper.trajectory(), sequence.poses
    )
    print(f"\nabsolute trajectory error (ATE, RMSE over {len(sequence)} poses):")
    print(f"  open-loop odometry : {ate_open:.3f} m")
    print(f"  loop-closed mapping: {ate_map:.3f} m", end="")
    if ate_open > 0:
        print(f"  ({ate_map / ate_open:.2f}x)")
    else:
        print()

    global_map = mapper.global_map()
    print(
        f"\nglobal map: {mapper.map.n_points} fused points in "
        f"{mapper.map.n_voxels} voxels"
    )
    print(f"map extent: {np.round(global_map.extent(), 2)} m")

    write_pcd(args.out, global_map)
    print(f"wrote {args.out}")
    if args.trace:
        combined = StageProfiler()
        combined.merge(mapper.odometry.profiler)
        combined.merge(mapper.loop_profiler)
        write_trace(
            tracer, args.trace, profiler_totals=combined.stage_totals()
        )
        print(f"wrote trace {args.trace}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
