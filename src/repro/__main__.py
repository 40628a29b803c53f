"""Command-line entry point: ``python -m repro <command>``.

Commands:

``info``
    Library version and the implemented paper/experiment inventory.
``demo``
    A 30-second end-to-end demonstration: synthesize a frame pair,
    register it, and replay the search workload on the accelerator
    model against the GPU baseline.
"""

from __future__ import annotations

import argparse
import sys


def cmd_info() -> int:
    import repro

    print(f"repro {repro.__version__} — Tigris (MICRO-52, 2019) reproduction")
    print(
        "\npaper: Xu, Tian, Zhu — 'Tigris: Architecture and Algorithms for"
        "\n       3D Perception in Point Clouds'"
    )
    print("\npackages:")
    for name, what in (
        ("repro.io", "point clouds, PCD/KITTI I/O, synthetic LiDAR"),
        ("repro.geometry", "SE(3), KITTI odometry metrics"),
        ("repro.kdtree", "canonical KD-tree"),
        ("repro.core", "two-stage KD-tree + approximate search (Sec. 4)"),
        ("repro.registration", "the configurable pipeline (Fig. 2, Tbl. 1)"),
        ("repro.mapping", "streaming SLAM: loop closure, pose graph, map"),
        ("repro.accel", "Tigris accelerator model + baselines (Sec. 5/6)"),
        ("repro.dse", "design-space exploration (Sec. 3.2)"),
    ):
        print(f"  {name:<20} {what}")
    print("\ncheck the paper's claims:  python -m pytest tests/paper")
    return 0


def cmd_demo() -> int:
    import numpy as np

    from repro.accel import GPUModel, TigrisSimulator, registration_workload
    from repro.geometry import metrics
    from repro.io import make_sequence
    from repro.registration import (
        ICPConfig,
        KeypointConfig,
        Pipeline,
        PipelineConfig,
        RPCEConfig,
    )

    print("1/3 synthesizing a LiDAR frame pair...")
    sequence = make_sequence(n_frames=2, seed=1)
    source, target, ground_truth = sequence.pair(0)
    print(f"    {len(source)} / {len(target)} points")

    print("2/3 registering (point-to-plane ICP)...")
    pipeline = Pipeline(
        PipelineConfig(
            keypoints=KeypointConfig(method="uniform", params={"voxel_size": 3.0}),
            icp=ICPConfig(
                rpce=RPCEConfig(max_distance=2.0),
                error_metric="point_to_plane",
                max_iterations=20,
            ),
            skip_initial_estimation=True,
        )
    )
    result = pipeline.register(source, target)
    rot_err, trans_err = metrics.pair_errors(result.transformation, ground_truth)
    print(
        f"    estimated t = {np.round(result.transformation[:3, 3], 3)} "
        f"(error {trans_err:.3f} m / {rot_err:.3f} deg)"
    )

    print("3/3 replaying the search workload on the accelerator model...")
    workloads = registration_workload(
        source.points, target.points, icp_iterations=5, leaf_size=128
    )
    accel = TigrisSimulator().simulate_many(list(workloads.values()))
    gpu_time = sum(GPUModel().run(w).time_seconds for w in workloads.values())
    print(
        f"    Tigris {accel.time_seconds * 1e6:.1f} us @ "
        f"{accel.power_watts:.1f} W vs GPU {gpu_time * 1e3:.2f} ms: "
        f"{gpu_time / accel.time_seconds:.1f}x speedup"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    parser.add_argument("command", choices=("info", "demo"), nargs="?",
                        default="info")
    args = parser.parse_args(argv)
    if args.command == "demo":
        return cmd_demo()
    return cmd_info()


if __name__ == "__main__":
    sys.exit(main())
