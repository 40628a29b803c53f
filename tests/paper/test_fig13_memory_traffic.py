"""Fig. 13 — on-chip memory traffic distribution, Acc-2SKD vs Acc-KD.

The paper's points: with the two-stage tree, leaf-set streaming makes
the Points Buffer the dominant consumer, and the node cache absorbs a
meaningful share of it (53 % -> 35 % of traffic); with the canonical
tree there is almost no exhaustive search, so Points Buffer traffic is
proportionally smaller.

Shape claims asserted: the node cache redirects Points Buffer traffic
(never creates or destroys it); ACC-2SKD has a larger node-stream share
than ACC-KD; disabling the cache raises Points Buffer share and energy.
"""

import pytest

from repro.accel import AcceleratorConfig, BackEndConfig, TigrisSimulator


@pytest.fixture(scope="module")
def runs(dp7_workloads):
    simulator = TigrisSimulator()
    no_cache = TigrisSimulator(
        AcceleratorConfig(backend=BackEndConfig(node_cache_entries=0))
    )
    two_stage = list(dp7_workloads["2skd"].values())
    return {
        "ACC-2SKD": simulator.simulate_many(two_stage),
        "ACC-KD": simulator.simulate_many(list(dp7_workloads["kd"].values())),
        "ACC-2SKD (no cache)": no_cache.simulate_many(two_stage),
    }


def test_fig13_memory_traffic(runs):
    two_stage = runs["ACC-2SKD"].traffic.distribution()
    canonical = runs["ACC-KD"].traffic.distribution()
    uncached = runs["ACC-2SKD (no cache)"].traffic.distribution()

    # The node cache absorbs part of the node-stream traffic.
    assert two_stage["Node Cache"] > 0
    assert uncached["Node Cache"] == 0.0
    assert uncached["Points Buf"] > two_stage["Points Buf"]
    # Node streams (points buffer + cache) are a bigger share of traffic
    # for the two-stage structure than for the canonical tree.
    two_stage_stream = two_stage["Points Buf"] + two_stage["Node Cache"]
    canonical_stream = canonical["Points Buf"] + canonical["Node Cache"]
    assert two_stage_stream > canonical_stream
    # Cache conservation: stream totals match with and without cache.
    with_cache = runs["ACC-2SKD"].traffic
    without_cache = runs["ACC-2SKD (no cache)"].traffic
    assert (
        with_cache.points_buffer + with_cache.node_cache
        == without_cache.points_buffer + without_cache.node_cache
    )
    # Redirecting traffic to the small cache saves energy.
    assert (
        runs["ACC-2SKD"].energy_joules
        < runs["ACC-2SKD (no cache)"].energy_joules
    )
