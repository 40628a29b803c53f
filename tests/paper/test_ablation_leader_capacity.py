"""Ablation — leader-buffer capacity (paper Sec. 5.3 caps it at 16).

The paper notes that capping the Leader Buffer *improves accuracy*
(overflow queries are searched exactly) at a modest work cost.  This
sweeps the capacity and measures both effects: distance-compute work
and NN accuracy versus the exact search.
"""

import numpy as np
import pytest

from repro.core import ApproximateSearch, ApproximateSearchConfig, TwoStageKDTree
from repro.kdtree import SearchStats, bruteforce

CAPACITIES = (1, 4, 16, 64, 256)


@pytest.fixture(scope="module")
def tree(lidar_pair):
    _, target, _ = lidar_pair
    return TwoStageKDTree.from_leaf_size(target.points, 128)


@pytest.fixture(scope="module")
def sweep(lidar_pair, tree):
    """capacity -> (total work, exact-NN rate, leaders)."""
    source, target, _ = lidar_pair
    queries = source.points[::2]
    exact_nn = bruteforce.nn_batch(target.points, queries)[0]
    results = {}
    for capacity in CAPACITIES:
        stats = SearchStats()
        search = ApproximateSearch(
            tree, ApproximateSearchConfig(leader_capacity=capacity)
        )
        indices, _ = search.nn_batch(queries, stats)
        accuracy = float(np.mean(indices == exact_nn))
        results[capacity] = (stats.total_work, accuracy, search.total_leaders)
    return results


def test_ablation_leader_capacity(sweep, tree):
    # Smaller buffers are more accurate (more exact fallbacks)...
    assert sweep[1][1] >= sweep[256][1]
    # ...but cost more work per query.
    assert sweep[1][0] > sweep[256][0] * 0.9
    # Leader counts respect the cap (per leaf set).
    for capacity in CAPACITIES:
        assert sweep[capacity][2] <= capacity * tree.n_leaf_sets
