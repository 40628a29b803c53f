"""Fig. 14 — sensitivity to hardware resources: RU / SU / PE sweep.

The paper sweeps all three unit counts over {16, 32, 64, 128} (64
configurations), showing (a) the performance/power frontier and (b)
that with few RUs the front-end bottlenecks the design, so adding
back-end capacity barely helps — and that the chosen 64/32/32 point
sits at the knee.

Shape claims asserted: performance improves with resources while power
rises; the front-end-bound regime exists at low RU counts; the paper's
design point is within 2x of the best configuration's time while using
a fraction of the peak hardware.
"""

import pytest

from repro.accel import sweep_hardware

SWEEP = (16, 32, 64, 128)


@pytest.fixture(scope="module")
def sweep(dp7_workloads):
    workloads = list(dp7_workloads["2skd"].values())
    return sweep_hardware(
        workloads, ru_values=SWEEP, su_values=SWEEP, pe_values=SWEEP
    ).results


def test_fig14_hw_sensitivity(sweep):
    # Performance scales with resources; power rises with them.
    smallest = sweep[(16, 16, 16)]
    largest = sweep[(128, 128, 128)]
    assert largest.time_seconds < smallest.time_seconds
    assert largest.power_watts > smallest.power_watts

    # Front-end-bound regime: with 16 RUs, growing the back-end from
    # (32, 32) to (128, 128) helps performance only marginally.
    low_ru_small_be = sweep[(16, 32, 32)].time_seconds
    low_ru_big_be = sweep[(16, 128, 128)].time_seconds
    assert low_ru_big_be > 0.7 * low_ru_small_be

    # The paper's design point sits at the knee: close to the best time
    # at a fraction of the peak resources.
    best_time = min(r.time_seconds for r in sweep.values())
    assert sweep[(64, 32, 32)].time_seconds < 2.0 * best_time
