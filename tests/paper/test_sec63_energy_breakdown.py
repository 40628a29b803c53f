"""Sec. 6.3 — energy breakdown of Acc-2SKD on the DP4 workload.

The paper reports, for DP4: PE 53.7 %, SRAM read 34.8 %, SRAM write
8.0 %, leakage 3.3 %, DRAM 0.2 %.  Asserted shape: the same ordering —
PE largest, then SRAM read, then SRAM write, leakage small, DRAM
smallest — and Acc-KD costing more energy than Acc-2SKD (paper: 2.5x).
"""

from repro.accel import TigrisSimulator


def test_sec63_energy_breakdown(dp4_workloads):
    simulator = TigrisSimulator()
    two_stage = simulator.simulate_many(list(dp4_workloads["2skd"].values()))
    canonical = simulator.simulate_many(list(dp4_workloads["kd"].values()))
    fractions = two_stage.energy.fractions()

    # Ordering matches the paper's breakdown.
    assert (
        fractions["PE"]
        > fractions["SRAM read"]
        > fractions["SRAM write"]
        > fractions["DRAM"]
    )
    assert fractions["PE"] > 0.4
    assert fractions["Leakage"] < 0.15
    assert fractions["DRAM"] < 0.05
    # Acc-KD trades time for energy: slower front-end-bound execution
    # burns more total energy than Acc-2SKD.
    assert canonical.energy_joules > two_stage.energy_joules
