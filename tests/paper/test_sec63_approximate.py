"""Sec. 6.3 — the approximate search's compute reduction and accuracy.

The paper, at thd = 1.2 m (NN) / 40 % of radius, reports: 72.8 % fewer
node visits (41.6 points from NN + 31.2 from radius search), ~11.1x
KD-tree-search speedup over exact Acc-2SKD on DP7, and essentially no
accuracy impact (rotational error +0.05 deg/m on DP4, +0.0006 on DP7).

Our frames are sparser than KITTI, so the radius-stage reduction is
density-limited (followers need a leader within thd); the NN stage cuts
deeply.  Asserted: substantial overall node reduction, accelerator
speedup from the approximation, and bounded end-to-end accuracy change.
"""

import pytest

from repro.accel import TigrisSimulator
from repro.geometry import metrics
from repro.registration import (
    ICPConfig,
    Pipeline,
    PipelineConfig,
    RPCEConfig,
    SearchConfig,
)


def total_nodes(workloads) -> int:
    return sum(
        w.total_nodes_visited + w.total_leader_checks for w in workloads.values()
    )


@pytest.fixture(scope="module")
def accuracy(medium_sequence):
    """(rotation, translation) errors of exact vs approximate search."""
    source, target, gt = medium_sequence.pair(0)

    def run(backend):
        config = PipelineConfig(
            icp=ICPConfig(
                rpce=RPCEConfig(max_distance=2.0),
                error_metric="point_to_plane",
                max_iterations=20,
            ),
            search=SearchConfig(backend=backend, leaf_size=128),
            skip_initial_estimation=True,
        )
        result = Pipeline(config).register(source, target)
        return metrics.pair_errors(result.transformation, gt)

    return run("twostage"), run("approximate")


def test_sec63_approximate(dp7_workloads, accuracy):
    simulator = TigrisSimulator()
    approx_result = simulator.simulate_many(list(dp7_workloads["approx"].values()))
    exact_result = simulator.simulate_many(list(dp7_workloads["2skd"].values()))
    reduction = 1.0 - total_nodes(dp7_workloads["approx"]) / total_nodes(
        dp7_workloads["2skd"]
    )
    rpce_exact = dp7_workloads["2skd"]["RPCE"].total_nodes_visited
    rpce_approx = (
        dp7_workloads["approx"]["RPCE"].total_nodes_visited
        + dp7_workloads["approx"]["RPCE"].total_leader_checks
    )
    (exact_rot, exact_trans), (approx_rot, approx_trans) = accuracy

    # Substantial compute reduction, dominated by the NN stage.
    assert reduction > 0.15
    assert rpce_approx < 0.6 * rpce_exact
    # The reduction translates into accelerator time and energy.
    assert approx_result.time_seconds <= exact_result.time_seconds
    assert approx_result.energy_joules < exact_result.energy_joules
    # End-to-end accuracy is preserved within a small margin.
    assert approx_trans < exact_trans + 0.2
    assert approx_rot < exact_rot + 1.0
