"""Front-end (Recursion Unit) timing model (paper Sec. 5.2, Fig. 9).

Each RU processes one query at a time, iterating the six-stage pipeline
(FQ RS RN CD PI CL) over the query's top-tree path.  Per-iteration cost
depends on the stall-mitigation options:

* no optimizations — the PI->RS stack dependency stalls 3 cycles per
  iteration (4 cycles/node);
* node bypassing — popped-but-prunable nodes exit after RN;
* node forwarding — the PI stage forwards the next node to RN and the
  push-order decision moves into CD, eliminating the stalls entirely
  (1 cycle/node).

Queries are distributed to RUs dynamically from the FE Query Queue;
total front-end time is the makespan of a greedy earliest-free-unit
assignment, which is what the hardware's queue effectively implements.
Per-query cycles are one expression over the trace table's columns; the
assignment is a heap of Python ints.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.accel.config import AcceleratorConfig
from repro.accel.memory import TrafficCounters
from repro.accel.workload import SearchWorkload
from repro.core.trace import TraceTable

__all__ = ["FrontEndReport", "simulate_frontend", "query_frontend_cycles"]


@dataclass
class FrontEndReport:
    """Front-end simulation outcome."""

    cycles: int
    busy_cycles: int  # summed across RUs
    utilization: float  # busy / (cycles * n_RUs)
    traffic: TrafficCounters
    distance_computations: int


def query_frontend_cycles(trace: TraceTable, config: AcceleratorConfig) -> np.ndarray:
    """RU cycles to process each query's top-tree traversal."""
    fe = config.frontend
    return (
        1  # FQ: fetch the query, once per query
        + trace.toptree_visits * fe.full_node_cycles
        + trace.toptree_bypassed * fe.bypassed_node_cycles
        # CL: one issue cycle per leaf handed to the back-end.
        + trace.visit_counts
    )


def ru_finish_times(cycles: list[int], n_rus: int) -> list[int]:
    """Each query's finish time when queries, in order, take the
    earliest-free RU."""
    free = [0] * n_rus
    finish = []
    for query_cycles in cycles:
        end = free[0] + query_cycles
        heapq.heapreplace(free, end)
        finish.append(end)
    return finish


def simulate_frontend(
    workload: SearchWorkload, config: AcceleratorConfig
) -> FrontEndReport:
    """Replay all query traces on the RU array."""
    trace = workload.trace
    n_rus = config.n_recursion_units
    cycles = query_frontend_cycles(trace, config)
    busy = int(cycles.sum())
    makespan = max(ru_finish_times(cycles.tolist(), n_rus), default=0)

    traffic = TrafficCounters()
    n_queries = workload.n_queries
    total_pops = workload.total_toptree_visits + workload.total_toptree_bypassed
    total_pushes = int(trace.stack_pushes.sum())
    total_leaves = len(trace.leaf_id)
    traffic.fe_query_queue += 2 * n_queries  # enqueue + dequeue
    traffic.query_buffer += n_queries  # FQ query-point fetch
    traffic.query_stack += total_pops + total_pushes
    traffic.points_buffer += workload.total_toptree_visits  # RN node reads
    traffic.be_query_buffer += total_leaves  # CL issues into BQBs
    # Result-buffer inserts from the FE happen only when a top-tree node
    # qualifies as a result candidate — once per returned result at most
    # (NN candidates update a register, not the buffer).
    traffic.result_buffer += workload.total_results

    utilization = busy / (makespan * n_rus) if makespan else 0.0
    return FrontEndReport(
        cycles=makespan,
        busy_cycles=busy,
        utilization=utilization,
        traffic=traffic,
        distance_computations=workload.total_toptree_visits,
    )
