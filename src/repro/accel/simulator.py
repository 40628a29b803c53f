"""The Tigris accelerator simulator (paper Sec. 5/6).

Trace-driven and cycle-approximate: the functional two-stage search
produces a columnar trace table of its queries
(:mod:`repro.accel.workload`); the front-end and back-end models replay
it against an
:class:`~repro.accel.config.AcceleratorConfig`; energy converts the
resulting activity into joules.

Front-end and back-end run decoupled through the FE Query Queue and BE
Query Buffers (Fig. 8), so total time is the maximum of the two
makespans plus a drain term — the standard bound for a two-stage
pipelined system with deep queues.  This reproduces the paper's
first-order behaviours: Acc-KD (canonical tree) is front-end-bound with
idle SUs; short top-trees are back-end-bound; the knee sits where the
two balance (Fig. 15).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accel.backend import BackEndReport, simulate_backend
from repro.accel.config import AcceleratorConfig
from repro.accel.energy import EnergyBreakdown, EnergyParameters, estimate_energy
from repro.accel.frontend import FrontEndReport, simulate_frontend
from repro.accel.memory import TrafficCounters
from repro.accel.workload import SearchWorkload

__all__ = ["SimulationResult", "TigrisSimulator"]


@dataclass
class SimulationResult:
    """Everything one simulation run produced."""

    workload_name: str
    cycles: int
    time_seconds: float
    frontend: FrontEndReport
    backend: BackEndReport
    traffic: TrafficCounters
    energy: EnergyBreakdown

    @property
    def power_watts(self) -> float:
        if self.time_seconds == 0:
            return 0.0
        return self.energy.total / self.time_seconds

    @property
    def energy_joules(self) -> float:
        return self.energy.total

    @property
    def bound(self) -> str:
        """Which half limits performance."""
        return "frontend" if self.frontend.cycles >= self.backend.cycles else "backend"

    def __repr__(self) -> str:
        return (
            f"SimulationResult({self.workload_name!r}: "
            f"{self.time_seconds * 1e3:.3f} ms, {self.power_watts:.2f} W, "
            f"{self.bound}-bound)"
        )


class TigrisSimulator:
    """Replays search workloads on a configured accelerator."""

    def __init__(
        self,
        config: AcceleratorConfig | None = None,
        energy_parameters: EnergyParameters | None = None,
    ):
        self.config = config or AcceleratorConfig()
        self.energy_parameters = energy_parameters or EnergyParameters()

    def simulate(self, workload: SearchWorkload) -> SimulationResult:
        """Run one workload; returns timing, traffic, and energy."""
        config = self.config
        fe = simulate_frontend(workload, config)
        be = simulate_backend(workload, config)

        # Decoupled-pipeline bound: the slower half sets the pace; the
        # faster half hides behind the queues except for a drain term of
        # one average batch on the non-dominant side.
        drain = min(fe.cycles, be.cycles) // max(
            1, workload.n_queries // max(config.n_recursion_units, 1) + 1
        )
        cycles = max(fe.cycles, be.cycles) + min(drain, min(fe.cycles, be.cycles))

        traffic = TrafficCounters()
        traffic.merge(fe.traffic)
        traffic.merge(be.traffic)

        time_seconds = cycles * config.cycle_time_ns * 1e-9
        energy = estimate_energy(
            traffic,
            fe.distance_computations + be.distance_computations,
            time_seconds,
            config,
            self.energy_parameters,
        )
        return SimulationResult(
            workload_name=workload.name,
            cycles=cycles,
            time_seconds=time_seconds,
            frontend=fe,
            backend=be,
            traffic=traffic,
            energy=energy,
        )

    def simulate_many(self, workloads: list[SearchWorkload]) -> SimulationResult:
        """Simulate a sequence of workloads back-to-back and sum them."""
        if not workloads:
            raise ValueError("need at least one workload")
        total_cycles = 0
        total_time = 0.0
        traffic = TrafficCounters()
        energy = EnergyBreakdown()
        fe_last: FrontEndReport | None = None
        be_last: BackEndReport | None = None
        for workload in workloads:
            result = self.simulate(workload)
            total_cycles += result.cycles
            total_time += result.time_seconds
            traffic.merge(result.traffic)
            energy.pe_compute += result.energy.pe_compute
            energy.sram_read += result.energy.sram_read
            energy.sram_write += result.energy.sram_write
            energy.dram += result.energy.dram
            energy.leakage += result.energy.leakage
            fe_last, be_last = result.frontend, result.backend
        return SimulationResult(
            workload_name="+".join(w.name for w in workloads),
            cycles=total_cycles,
            time_seconds=total_time,
            frontend=fe_last,
            backend=be_last,
            traffic=traffic,
            energy=energy,
        )
