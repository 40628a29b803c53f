"""Design-space exploration harness (paper Sec. 3.2, Fig. 3/4)."""

from repro.dse.explorer import (
    ExplorationReport,
    FrameStateCache,
    explore,
)
from repro.dse.grid import (
    SweepSpec,
    default_sweep,
    fingerprint_groups,
    parameter_grid,
)
from repro.dse.pareto import (
    DesignPointResult,
    aggregate_across_scenes,
    is_dominated,
    pareto_frontier,
)

__all__ = [
    "DesignPointResult",
    "pareto_frontier",
    "is_dominated",
    "aggregate_across_scenes",
    "explore",
    "ExplorationReport",
    "FrameStateCache",
    "SweepSpec",
    "parameter_grid",
    "default_sweep",
    "fingerprint_groups",
]
