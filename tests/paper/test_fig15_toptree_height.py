"""Fig. 15 — search time and energy as a function of top-tree height.

Short top-trees drown the back-end in redundant exhaustive search; tall
top-trees serialize everything in the front-end RUs.  The optimum sits
in between (the paper finds height 10 for 130 k-point KITTI frames —
i.e. leaf sets around n / 2^10 ~ 128; at our ~2.8k-point scale the
equivalent knee sits lower).

Shape claims asserted: the time curve is U-shaped (both extremes are
slower than the interior optimum); the optimal height is interior; and
energy grows toward short top-trees (redundant work costs joules).
"""

import numpy as np
import pytest

from repro.accel import sweep_top_height

HEIGHTS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)


@pytest.fixture(scope="module")
def sweep(lidar_pair):
    source, target, _ = lidar_pair
    return sweep_top_height(
        source.points,
        target.points,
        heights=HEIGHTS,
        normal_radius=0.75,
        icp_iterations=2,
    ).results


def test_fig15_toptree_height(sweep):
    times = [sweep[h].time_seconds for h in HEIGHTS]
    optimum = HEIGHTS[int(np.argmin(times))]
    # U-shape: both extremes lose to the interior optimum.
    assert min(times) < times[0]
    assert min(times) < times[-1]
    # The optimum is interior, matching the paper's diminishing-returns
    # narrative.
    assert HEIGHTS[0] < optimum < HEIGHTS[-1]
    # Short top-trees are backend-bound, tall ones frontend-bound.
    assert sweep[HEIGHTS[0]].bound == "backend"
    assert sweep[HEIGHTS[-1]].bound == "frontend"
    # Energy rises toward very short top-trees (redundant node visits).
    assert sweep[1].energy_joules > sweep[optimum].energy_joules
