"""Event-coupled front-end/back-end simulation.

The default simulator bounds total time by ``max(FE, BE) + drain``,
assuming the FE Query Queue and BE Query Buffers are deep enough to
decouple the halves.  This module provides the tighter discrete-event
alternative: back-end work only becomes available when the front-end
actually issues it, so a slow front-end *starves* the search units —
the effect that makes Acc-KD leave the back-end idle (paper Sec. 6.3)
and that shapes the Fig. 15 knee.

Timing semantics:

* every query is assigned to the earliest-free RU; all its leaf visits
  are issued when the query finishes its top-tree traversal (the CL
  stage fires per leaf, but a query's leaves cluster at its tail —
  one-timestamp-per-query is the documented approximation);
* each SU processes its arrival stream in order with the same windowed
  (leaf id, mode) batch former as the decoupled model
  (:func:`repro.accel.backend.take_batch`), but may only batch visits
  that have arrived; if its buffer is empty it idles until the next
  arrival.

Like the decoupled models it reads the trace table's columns: a visit's
arrival is its query's finish time, and each SU's stream is its visits
in arrival order, ties in trace order.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.accel.backend import batch_keys, route, take_batch
from repro.accel.config import AcceleratorConfig
from repro.accel.frontend import query_frontend_cycles, ru_finish_times
from repro.accel.workload import SearchWorkload

__all__ = ["CoupledTiming", "simulate_coupled"]


@dataclass
class CoupledTiming:
    """Outcome of the event-coupled simulation (cycles)."""

    total_cycles: int
    frontend_cycles: int
    backend_finish: int
    backend_idle_cycles: int  # summed SU idle time while work remained

    @property
    def starvation_fraction(self) -> float:
        """Share of back-end busy-window cycles lost to starvation."""
        window = self.backend_finish
        if window == 0:
            return 0.0
        return self.backend_idle_cycles / (window * max(1, self._n_sus))

    _n_sus: int = 1


def simulate_coupled(
    workload: SearchWorkload, config: AcceleratorConfig
) -> CoupledTiming:
    """Run the discrete-event FE/BE coupling for one workload."""
    trace = workload.trace
    n_pes = config.pes_per_su
    backend = config.backend

    # Front end: earliest-free-RU assignment; every leaf visit of a
    # query issues at the query's finish time.
    finish = ru_finish_times(
        query_frontend_cycles(trace, config).tolist(), config.n_recursion_units
    )
    fe_cycles = max(finish, default=0)
    arrival = np.repeat(np.array(finish, dtype=np.int64), trace.visit_counts)
    active = np.flatnonzero(~trace.pruned)
    by_arrival = active[np.argsort(arrival[active], kind="stable")]
    visits, su_ends = route(trace, by_arrival, config.n_search_units)
    keys, window = batch_keys(trace, visits, config)
    items = visits.tolist()
    times = arrival[visits].tolist()
    scanned = trace.scanned.tolist()
    checks = trace.leader_checks.tolist()

    # Back end: per-SU event loop over the arrival stream.  The buffer
    # is items[head:arrived]; take_batch reorders only that range, so
    # times[arrived:] stay aligned with the entries not yet arrived.
    backend_finish = 0
    idle_total = 0
    start = 0
    for end in su_ends:
        head = arrived = start
        now = idle = 0
        while head < end:
            # Pull in everything that has arrived by `now`.
            arrived = bisect_right(times, now, arrived, end)
            if head == arrived:
                # Starved: jump to the next arrival.
                idle += times[arrived] - now
                now = times[arrived]
                continue
            size = take_batch(keys, items, head, arrived, n_pes, window)
            batch = items[head : head + size]
            longest_stream = max(scanned[v] for v in batch)
            longest_checks = max(checks[v] for v in batch)
            check_cycles = -(-longest_checks // n_pes)
            now += 1 + backend.pipeline_fill_cycles + check_cycles + longest_stream
            head += size
        backend_finish = max(backend_finish, now)
        idle_total += idle
        start = end

    total = max(fe_cycles, backend_finish)
    timing = CoupledTiming(
        total_cycles=total,
        frontend_cycles=fe_cycles,
        backend_finish=backend_finish,
        backend_idle_cycles=idle_total,
    )
    timing._n_sus = config.n_search_units
    return timing
