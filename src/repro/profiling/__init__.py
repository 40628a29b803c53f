"""Profiling utilities for the bottleneck analysis (paper Fig. 4)."""

from repro.profiling.timer import StageProfiler, StageTiming

__all__ = ["StageProfiler", "StageTiming"]
