"""LiDAR odometry over a synthetic sequence (paper Sec. 2.2's motivating
application).

A vehicle drives through a synthetic urban scene; consecutive frames are
registered and the relative transforms chained into a trajectory, which
is scored with the KITTI odometry metrics (translational % and
rotational deg/m) — the exact accuracy setup of the paper's evaluation.

Frames flow through the streaming engine: each frame is preprocessed
once into a FrameState and handed from "source of pair k" to "target
of pair k+1", so the steady-state per-pair cost is one preprocess plus
one match.

Run:  python examples/odometry.py [--frames N] [--dense] [--trace out.json]

``--trace out.json`` records the run through the telemetry layer and
writes a Chrome trace (Perfetto / ``chrome://tracing``; a ``.jsonl``
path gets the flat run record) — one span per pair with the pipeline
stages nested inside.
"""

import argparse

import numpy as np

from repro.geometry import metrics, se3
from repro.io import default_test_model, make_sequence
from repro.registration import (
    ICPConfig,
    KeypointConfig,
    Pipeline,
    PipelineConfig,
    RPCEConfig,
    run_odometry,
)
from repro.telemetry import Tracer, write_trace


def build_pipeline() -> Pipeline:
    """Point-to-plane ICP seeded by the previous frame's motion."""
    return Pipeline(
        PipelineConfig(
            keypoints=KeypointConfig(method="uniform", params={"voxel_size": 3.0}),
            icp=ICPConfig(
                rpce=RPCEConfig(max_distance=2.0),
                error_metric="point_to_plane",
                max_iterations=30,
            ),
            skip_initial_estimation=True,
        )
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=5)
    parser.add_argument(
        "--dense",
        action="store_true",
        help="use a 32x360 scan pattern (slower, much more accurate)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Chrome trace (or .jsonl run record) of the run",
    )
    args = parser.parse_args()

    model = (
        default_test_model(azimuth_steps=360, channels=32)
        if args.dense
        else default_test_model()
    )
    sequence = make_sequence(
        n_frames=args.frames, seed=7, step=1.0, yaw_rate=0.01, model=model
    )
    print(
        f"sequence: {len(sequence)} frames, "
        f"~{len(sequence.frames[0])} points each"
    )

    # Register all consecutive pairs with a constant-velocity prior and
    # score against ground truth; each frame is preprocessed once and
    # reused across its two pairs.
    tracer = Tracer() if args.trace else None
    result = run_odometry(sequence, build_pipeline(), tracer=tracer)
    for index, (pair, seconds) in enumerate(
        zip(result.pair_results, result.pair_seconds)
    ):
        translation = se3.translation_part(pair.transformation)
        print(
            f"frame {index + 1:2d}: {seconds:5.2f}s  "
            f"t = {np.round(translation, 3)}  {pair.icp}"
        )

    print("\nKITTI-style sequence errors (paper Fig. 3 axes):")
    print(f"  translational: {result.errors.translational_percent:.2f} %")
    print(f"  rotational:    {result.errors.rotational:.4f} deg/m")

    # Anchor the estimated trajectory (which starts at the identity) at
    # the ground-truth start pose before comparing absolute positions.
    final_gt = se3.translation_part(sequence.poses[-1])
    final_est = se3.translation_part(
        se3.compose(sequence.poses[0], result.trajectory[-1])
    )
    travelled = metrics.trajectory_distances(sequence.poses)[-1]
    print(
        f"  final position error: {np.linalg.norm(final_gt - final_est):.3f} m "
        f"over {travelled:.1f} m travelled"
    )
    if args.trace:
        write_trace(
            tracer, args.trace, profiler_totals=result.profiler.stage_totals()
        )
        print(f"wrote trace {args.trace}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
