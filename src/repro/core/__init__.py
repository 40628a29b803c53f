"""Tigris core contribution: the acceleration-amenable KD-tree.

This package holds the paper's Sec. 4: the two-stage KD-tree data
structure that exposes query- and node-level parallelism, the per-query
work traces that drive the accelerator model, and the leaders/followers
approximate search algorithm that reclaims the structure's redundancy.
"""

from repro.core.approx import ApproximateSearch, ApproximateSearchConfig
from repro.core.ragged import RaggedNeighborhoods
from repro.core.trace import LeafVisitRecord, QueryTrace, TraceTable
from repro.core.twostage import TwoStageKDTree

__all__ = [
    "TwoStageKDTree",
    "ApproximateSearch",
    "ApproximateSearchConfig",
    "QueryTrace",
    "LeafVisitRecord",
    "TraceTable",
    "RaggedNeighborhoods",
]
