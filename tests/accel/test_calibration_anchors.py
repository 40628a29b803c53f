"""Calibration-anchor regression tests.

The baseline models and energy constants were calibrated so the
paper's headline ratios reproduce on the reference workload (the
substitution table in ``tests/paper/README.md``).  These tests pin the
anchors: if a future change to the simulator, the traces, or the
constants drifts them, this file fails before the figure claims in
``tests/paper`` do.
"""

import numpy as np
import pytest

from repro.accel import (
    CPUModel,
    GPUModel,
    TigrisSimulator,
    estimate_area,
    registration_workload,
)
from repro.accel.config import AcceleratorConfig


@pytest.fixture(scope="module")
def reference(lidar_pair):
    """The calibration workload: DP7-style searches on the seed-3 pair."""
    source, target, _ = lidar_pair
    kwargs = dict(normal_radius=0.75, icp_iterations=5)
    return {
        "2skd": registration_workload(
            source.points, target.points, leaf_size=128, **kwargs
        ),
        "kd": registration_workload(
            source.points, target.points, leaf_size=1, **kwargs
        ),
    }


class TestAnchors:
    def test_speedup_anchor(self, reference):
        """Paper: Acc-2SKD is 77.2x over Base-2SKD on DP7."""
        accel = TigrisSimulator().simulate_many(list(reference["2skd"].values()))
        gpu = sum(
            GPUModel().run(w).time_seconds for w in reference["2skd"].values()
        )
        speedup = gpu / accel.time_seconds
        assert 70 < speedup < 90

    def test_gpu_structure_anchor(self, reference):
        """Paper: Base-2SKD is ~1.28x faster than Base-KD on the GPU."""
        gpu = GPUModel()
        base_kd = sum(gpu.run(w).time_seconds for w in reference["kd"].values())
        base_2skd = sum(gpu.run(w).time_seconds for w in reference["2skd"].values())
        assert 1.15 < base_kd / base_2skd < 1.45

    def test_gpu_vs_cpu_anchor(self, reference):
        """Paper: GPU KD-tree search is 8-20x the CPU's."""
        cpu_time = sum(
            CPUModel().run(w).time_seconds for w in reference["kd"].values()
        )
        gpu_time = sum(
            GPUModel().run(w).time_seconds for w in reference["kd"].values()
        )
        assert 5 < cpu_time / gpu_time < 25

    def test_power_reduction_anchor(self, reference):
        """Paper: ~7x power reduction over the GPU on DP7."""
        accel = TigrisSimulator().simulate_many(list(reference["2skd"].values()))
        reduction = GPUModel().power_watts / accel.power_watts
        assert 5 < reduction < 10

    def test_power_band_anchor(self, reference):
        """Paper Fig. 14a: the accelerator operates in the 4-36 W band."""
        accel = TigrisSimulator().simulate_many(list(reference["2skd"].values()))
        assert 4 < accel.power_watts < 40

    def test_energy_share_ordering(self, reference):
        """Paper DP4 breakdown ordering: PE > read > write > leak > DRAM
        (leakage/DRAM may swap at small scale; the compute/memory
        ordering is the pinned part)."""
        accel = TigrisSimulator().simulate_many(list(reference["2skd"].values()))
        fractions = accel.energy.fractions()
        assert (
            fractions["PE"]
            > fractions["SRAM read"]
            > fractions["SRAM write"]
            > fractions["DRAM"]
        )

    def test_area_anchor(self):
        """Paper Sec. 6.2: 8.38 + 7.19 mm^2 at 53.8 % / 46.2 %."""
        report = estimate_area(AcceleratorConfig())
        assert report.sram_mm2 == pytest.approx(8.38, rel=0.02)
        assert report.logic_mm2 == pytest.approx(7.19, rel=0.02)

    def test_clock_anchor(self):
        """Paper Sec. 6.1: the datapath clocks at 500 MHz."""
        assert AcceleratorConfig().clock_ghz == pytest.approx(0.5)

    def test_trace_determinism(self, reference):
        """The calibration workload itself must be reproducible."""
        nodes = sum(w.total_nodes_visited for w in reference["2skd"].values())
        assert nodes > 1_000_000  # the reference workload's scale
        again = TigrisSimulator().simulate_many(list(reference["2skd"].values()))
        once = TigrisSimulator().simulate_many(list(reference["2skd"].values()))
        assert again.cycles == once.cycles
