"""Ablation — node-cache capacity (paper: 128 KB, ~8 leaf sets).

The paper credits the node cache with redirecting 18 % of memory
traffic to a small structure, saving 5.9 % energy.  This sweeps the
cache capacity under realistic cache *pressure*: a leaf-size-8 workload
gives each SU ~11 leaf sets to juggle, so small caches actually miss
(with the default leaf ~128 on a 2.8 k-point frame each SU owns a
single leaf set and any cache trivially hits).
"""

import pytest

from repro.accel import (
    AcceleratorConfig,
    BackEndConfig,
    TigrisSimulator,
    registration_workload,
)

CACHE_SIZES = (0, 1, 2, 4, 8, 16)


@pytest.fixture(scope="module")
def runs(lidar_pair):
    source, target, _ = lidar_pair
    workloads = list(
        registration_workload(
            source.points,
            target.points,
            normal_radius=0.75,
            icp_iterations=2,
            leaf_size=8,
        ).values()
    )
    return {
        entries: TigrisSimulator(
            AcceleratorConfig(backend=BackEndConfig(node_cache_entries=entries))
        ).simulate_many(workloads)
        for entries in CACHE_SIZES
    }


def hit_rate(result) -> float:
    backend = result.backend
    total = backend.node_cache_hits + backend.node_cache_misses
    return backend.node_cache_hits / total if total else 0.0


def test_ablation_node_cache(runs):
    # More cache -> monotonically no-worse Points Buffer traffic.
    points_traffic = [runs[e].traffic.points_buffer for e in CACHE_SIZES]
    assert all(
        later <= earlier
        for earlier, later in zip(points_traffic, points_traffic[1:])
    )
    # Hit rate grows with capacity and the sweep exercises a real range.
    assert hit_rate(runs[0]) == 0.0
    assert hit_rate(runs[1]) < hit_rate(runs[16])
    assert hit_rate(runs[16]) > 0.2
    # Energy with a reasonable cache beats no cache.
    assert runs[8].energy_joules < runs[0].energy_joules
