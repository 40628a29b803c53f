"""Sec. 6.3 — end-to-end registration speedup and power reduction.

The paper's headline: accelerating only the KD-tree searches speeds up
end-to-end registration by 41.7 % (DP7) / 13.6 % (DP4) over the
CPU+GPU baseline, 86.6 % over CPU-only, and cuts system power 3.0x.

This test couples the measured quantities end to end: the KD-tree
time fraction comes from the profiled pipeline run (the Fig. 4b
measurement), the search speedup from the Fig. 11 platform comparison,
and the Amdahl + time-weighted-power model in
:mod:`repro.accel.endtoend` produces the system-level numbers.  Our
Python host makes the measured KD-tree fraction higher than the paper's
C++ host, so the Amdahl gains here bound the paper's from above.
"""

from repro.accel import CPUModel, EndToEndModel, GPUModel, TigrisSimulator
from repro.profiling import StageProfiler
from repro.registration import Pipeline, dp7_accuracy


def test_sec63_endtoend(medium_sequence, dp7_workloads):
    # 1. Measure the KD-tree search fraction on a real DP7 run (Fig. 4b).
    source, target, _ = medium_sequence.pair(0)
    profiler = StageProfiler()
    Pipeline(dp7_accuracy()).register(source, target, profiler=profiler)

    # 2. Measure the search speedup of the accelerator over the GPU and
    # CPU baselines (Fig. 11).
    gpu, cpu = GPUModel(), CPUModel()
    accel = TigrisSimulator().simulate_many(list(dp7_workloads["2skd"].values()))
    gpu_search = sum(gpu.run(w).time_seconds for w in dp7_workloads["2skd"].values())
    cpu_search = sum(cpu.run(w).time_seconds for w in dp7_workloads["kd"].values())
    speedup_vs_gpu = gpu_search / accel.time_seconds

    # 3. The Amdahl + time-weighted-power model.
    model = EndToEndModel(
        kdtree_fraction=profiler.kdtree_fractions()["search"],
        baseline_total_seconds=profiler.total,
        host_watts=cpu.power_watts,
    )
    e2e_speedup, e2e_power = model.speedup_over_baseline(
        speedup_vs_gpu, gpu.power_watts, accel.power_watts
    )
    cpu_speedup, _ = model.speedup_over_baseline(
        cpu_search / accel.time_seconds, cpu.power_watts, accel.power_watts
    )

    # End-to-end gains are large but Amdahl-bounded.
    assert e2e_speedup > 1.3
    assert e2e_speedup < speedup_vs_gpu
    assert 1.0 / e2e_speedup > 1.0 / speedup_vs_gpu
    # The paper's 41.7 % reduction band: ours is at least that (higher
    # measured search fraction -> larger Amdahl gain).
    assert (1 - 1 / e2e_speedup) > 0.40
    # CPU-only comparison is even more favourable (paper: 86.6 %).
    assert cpu_speedup > e2e_speedup
    # System power reduction in the paper's band.
    assert 1.5 < e2e_power < 6.0
