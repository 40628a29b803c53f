"""Fig. 6 — the redundancy the two-stage KD-tree trades for parallelism.

Fig. 6a: redundancy ratio (nodes visited by the two-stage structure over
the canonical structure) as the leaf-set size grows from 1 to 32, for
both radius search and NN search.
Fig. 6b: the absolute number of nodes visited.

Shape claims asserted: redundancy grows monotonically with leaf-set
size; NN redundancy grows faster than radius redundancy (the paper's
explanation: NN benefits more from pruning, so it suffers more from
exhaustive leaf scans); radius search visits more nodes in absolute
terms.  The paper measures ~35x NN and ~3x radius redundancy at leaf 32.
"""

import numpy as np
import pytest

from repro.accel import build_workload

LEAF_SIZES = (1, 2, 4, 8, 16, 32)
RADIUS = 0.75


@pytest.fixture(scope="module")
def visits(lidar_pair):
    source, target, _ = lidar_pair
    queries = source.points[::3]  # every 3rd point as query
    visits = {"nn": {}, "radius": {}}
    for leaf_size in LEAF_SIZES:
        nn = build_workload(
            target.points, queries, kind="nn", leaf_size=leaf_size
        )
        radius = build_workload(
            target.points, queries, kind="radius", radius=RADIUS,
            leaf_size=leaf_size,
        )
        visits["nn"][leaf_size] = nn.total_nodes_visited
        visits["radius"][leaf_size] = radius.total_nodes_visited
    return visits


def test_fig06_redundancy(visits):
    nn_ratio = {s: visits["nn"][s] / visits["nn"][1] for s in LEAF_SIZES}
    radius_ratio = {
        s: visits["radius"][s] / visits["radius"][1] for s in LEAF_SIZES
    }

    # Monotone growth of redundancy with leaf-set size.
    assert all(np.diff([nn_ratio[s] for s in LEAF_SIZES]) > -1e-9)
    assert all(np.diff([radius_ratio[s] for s in LEAF_SIZES]) > -1e-9)
    # NN redundancy grows faster than radius redundancy.
    assert nn_ratio[32] > radius_ratio[32]
    # Radius search visits more nodes in absolute terms at every size.
    for leaf_size in LEAF_SIZES:
        assert visits["radius"][leaf_size] > visits["nn"][leaf_size]
