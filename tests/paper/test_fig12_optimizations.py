"""Fig. 12 — the architectural optimization ladder.

Acc-2SKD variants: no RU optimizations, +node bypassing, +node
forwarding, and the MQMN back-end alternative.

At the paper's 130 k-point scale the front-end contributes enough to
total time for the RU optimizations to show up end to end (+13.1 % and
+10.5 %); at our 2.8 k-point scale the two-stage workload is back-end
bound, so the ladder is checked twice: on the two-stage workload
(where the MQSN/MQMN contrast lives) and on the front-end-bound
canonical workload (where the RU ladder is visible end to end).

Shape claims asserted: RU front-end cycles strictly improve down the
ladder, and end-to-end time improves on the FE-bound workload; MQMN is
at least as fast as the best MQSN variant but burns more node-stream
traffic and power (the paper's reason to adopt MQSN).
"""

import pytest

from repro.accel import (
    AcceleratorConfig,
    BackEndConfig,
    FrontEndConfig,
    TigrisSimulator,
)

VARIANTS = {
    "No-Opt": AcceleratorConfig(
        frontend=FrontEndConfig(bypassing=False, forwarding=False)
    ),
    "Bypass": AcceleratorConfig(
        frontend=FrontEndConfig(bypassing=True, forwarding=False)
    ),
    "+Forward": AcceleratorConfig(
        frontend=FrontEndConfig(bypassing=True, forwarding=True)
    ),
    "MQMN": AcceleratorConfig(
        frontend=FrontEndConfig(bypassing=True, forwarding=True),
        backend=BackEndConfig(scheduling="mqmn"),
    ),
}


@pytest.fixture(scope="module")
def ladder(dp7_workloads):
    return {
        structure: {
            name: TigrisSimulator(config).simulate_many(
                list(dp7_workloads[structure].values())
            )
            for name, config in VARIANTS.items()
        }
        for structure in ("2skd", "kd")
    }


def test_fig12_optimizations(ladder):
    two_stage = ladder["2skd"]
    canonical = ladder["kd"]
    # RU ladder: front-end cycles strictly improve on both workloads.
    for variants in (two_stage, canonical):
        assert (
            variants["No-Opt"].frontend.cycles
            > variants["Bypass"].frontend.cycles
            > variants["+Forward"].frontend.cycles
        )
    # On the FE-bound workload the ladder shows up end to end.
    assert (
        canonical["No-Opt"].time_seconds
        > canonical["Bypass"].time_seconds
        > canonical["+Forward"].time_seconds
    )
    # MQMN: at least as fast as the best MQSN variant...
    assert two_stage["MQMN"].time_seconds <= two_stage["+Forward"].time_seconds
    # ...but more node-stream traffic, hence worse power and energy.
    mqmn_traffic = (
        two_stage["MQMN"].traffic.points_buffer
        + two_stage["MQMN"].traffic.node_cache
    )
    mqsn_traffic = (
        two_stage["+Forward"].traffic.points_buffer
        + two_stage["+Forward"].traffic.node_cache
    )
    assert mqmn_traffic > mqsn_traffic
    assert two_stage["MQMN"].power_watts > two_stage["+Forward"].power_watts
    assert two_stage["MQMN"].energy_joules > two_stage["+Forward"].energy_joules
