"""The per-visit-object accelerator models, kept as the oracle.

These are the front-end, back-end, coupled and whole-simulator models
as they ran on lists of :class:`~repro.core.trace.QueryTrace` records,
one :class:`~repro.core.trace.LeafVisitRecord` object per leaf visit,
before the models moved onto :class:`~repro.core.trace.TraceTable`
columns.  ``tests/accel/test_columnar_models.py`` requires every report
field of the columnar models to equal theirs.  They return the
library's own report types, so ``==`` compares every field.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, deque

from repro.accel.backend import BackEndReport
from repro.accel.coupled import CoupledTiming
from repro.accel.energy import EnergyParameters, estimate_energy
from repro.accel.frontend import FrontEndReport
from repro.accel.memory import TrafficCounters
from repro.accel.simulator import SimulationResult


def query_frontend_cycles(trace, config) -> int:
    fe = config.frontend
    cycles = 1
    cycles += trace.toptree_visits * fe.full_node_cycles
    cycles += trace.toptree_bypassed * fe.bypassed_node_cycles
    cycles += len(trace.leaf_visits)
    return cycles


def simulate_frontend(traces, config) -> FrontEndReport:
    n_rus = config.n_recursion_units
    finish = [0] * n_rus
    heapq.heapify(finish)
    busy = 0
    for trace in traces:
        cycles = query_frontend_cycles(trace, config)
        busy += cycles
        start = heapq.heappop(finish)
        heapq.heappush(finish, start + cycles)
    makespan = max(finish) if traces else 0

    toptree_visits = sum(t.toptree_visits for t in traces)
    traffic = TrafficCounters()
    n_queries = len(traces)
    total_pops = toptree_visits + sum(t.toptree_bypassed for t in traces)
    total_pushes = sum(t.stack_pushes for t in traces)
    total_leaves = sum(len(t.leaf_visits) for t in traces)
    traffic.fe_query_queue += 2 * n_queries
    traffic.query_buffer += n_queries
    traffic.query_stack += total_pops + total_pushes
    traffic.points_buffer += toptree_visits
    traffic.be_query_buffer += total_leaves
    traffic.result_buffer += sum(t.results for t in traces)

    utilization = busy / (makespan * n_rus) if makespan else 0.0
    return FrontEndReport(
        cycles=makespan,
        busy_cycles=busy,
        utilization=utilization,
        traffic=traffic,
        distance_computations=toptree_visits,
    )


class _LeafLRUCache:
    def __init__(self, entries: int):
        self._capacity = entries
        self._entries: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, leaf_id: int) -> bool:
        if self._capacity == 0:
            self.misses += 1
            return False
        if leaf_id in self._entries:
            self._entries.move_to_end(leaf_id)
            self.hits += 1
            return True
        self.misses += 1
        self._entries[leaf_id] = None
        if len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
        return False


def form_batches(visits, n_pes: int, scheduling: str, window: int):
    """The decoupled model's batch former."""
    batches = []
    if scheduling == "mqsn":
        queue = deque(visits)
        while queue:
            key = queue.popleft()
            batch = [key]
            scanned = deque()
            examined = 0
            while queue and len(batch) < n_pes and examined < window:
                candidate = queue.popleft()
                examined += 1
                if (
                    candidate.leaf_id == key.leaf_id
                    and candidate.approximate == key.approximate
                ):
                    batch.append(candidate)
                else:
                    scanned.append(candidate)
            queue.extendleft(reversed(scanned))
            batches.append(batch)
    else:
        for start in range(0, len(visits), n_pes):
            batches.append(visits[start : start + n_pes])
    return batches


def simulate_backend(traces, config) -> BackEndReport:
    n_sus = config.n_search_units
    n_pes = config.pes_per_su
    backend = config.backend

    per_su = [[] for _ in range(n_sus)]
    for trace in traces:
        for visit in trace.leaf_visits:
            if visit.pruned:
                continue
            per_su[visit.leaf_id % n_sus].append(visit)

    traffic = TrafficCounters()
    total_cycles = 0
    total_busy = 0
    total_batches = 0
    total_compute = 0
    cache_hits = 0
    cache_misses = 0

    for su_visits in per_su:
        if not su_visits:
            continue
        cache = _LeafLRUCache(backend.node_cache_entries)
        batches = form_batches(
            su_visits, n_pes, backend.scheduling, backend.issue_window
        )
        su_cycles = 0
        for batch in batches:
            longest_stream = max(v.scanned for v in batch)
            longest_checks = max(v.leader_checks for v in batch)
            check_cycles = -(-longest_checks // n_pes) if longest_checks else 0
            su_cycles += (
                1 + backend.pipeline_fill_cycles + check_cycles + longest_stream
            )
            total_busy += sum(v.scanned + v.leader_checks for v in batch)
            total_compute += sum(v.scanned + v.leader_checks for v in batch)

            traffic.be_query_buffer += len(batch)
            traffic.query_buffer += len(batch)
            precise = [v for v in batch if not v.approximate]
            followers = [v for v in batch if v.approximate]
            if backend.scheduling == "mqsn":
                if precise:
                    stream = max(v.scanned for v in precise)
                    if cache.access(batch[0].leaf_id):
                        traffic.node_cache += stream
                    else:
                        traffic.points_buffer += stream
            else:
                for visit in precise:
                    if cache.access(visit.leaf_id):
                        traffic.node_cache += visit.scanned
                    else:
                        traffic.points_buffer += visit.scanned
            for visit in followers:
                traffic.result_buffer += visit.scanned
            for visit in batch:
                traffic.leader_buffer += visit.leader_checks
                traffic.result_buffer += max(visit.result_size, 1)
        total_cycles = max(total_cycles, su_cycles)
        total_batches += len(batches)
        cache_hits += cache.hits
        cache_misses += cache.misses

    traffic.dram += sum(t.results for t in traces)

    capacity = total_cycles * n_sus * n_pes
    utilization = total_busy / capacity if capacity else 0.0
    return BackEndReport(
        cycles=total_cycles,
        busy_cycles=total_busy,
        utilization=utilization,
        traffic=traffic,
        distance_computations=total_compute,
        n_batches=total_batches,
        node_cache_hits=cache_hits,
        node_cache_misses=cache_misses,
    )


def take_batch(buffer, n_pes: int, scheduling: str, window: int):
    """The coupled model's batch former over a deque of
    ``(arrival, visit)`` pairs."""
    key_time, key = buffer.popleft()
    batch = [(key_time, key)]
    if scheduling == "mqmn":
        while buffer and len(batch) < n_pes:
            batch.append(buffer.popleft())
        return batch
    unmatched = deque()
    examined = 0
    while buffer and len(batch) < n_pes and examined < window:
        time_stamp, candidate = buffer.popleft()
        examined += 1
        if (
            candidate.leaf_id == key.leaf_id
            and candidate.approximate == key.approximate
        ):
            batch.append((time_stamp, candidate))
        else:
            unmatched.append((time_stamp, candidate))
    buffer.extendleft(reversed(unmatched))
    return batch


def simulate_coupled(traces, config) -> CoupledTiming:
    n_rus = config.n_recursion_units
    n_pes = config.pes_per_su
    backend = config.backend

    ru_heap = [0] * n_rus
    heapq.heapify(ru_heap)
    arrivals = [[] for _ in range(config.n_search_units)]
    fe_cycles = 0
    for trace in traces:
        cycles = query_frontend_cycles(trace, config)
        start = heapq.heappop(ru_heap)
        end = start + cycles
        heapq.heappush(ru_heap, end)
        fe_cycles = max(fe_cycles, end)
        for visit in trace.leaf_visits:
            if visit.pruned:
                continue
            arrivals[visit.leaf_id % config.n_search_units].append((end, visit))

    backend_finish = 0
    idle_total = 0
    for stream in arrivals:
        if not stream:
            continue
        stream.sort(key=lambda item: item[0])
        cursor = 0
        buffer = deque()
        now = 0
        idle = 0
        while cursor < len(stream) or buffer:
            while cursor < len(stream) and stream[cursor][0] <= now:
                buffer.append(stream[cursor])
                cursor += 1
            if not buffer:
                next_arrival = stream[cursor][0]
                idle += next_arrival - now
                now = next_arrival
                continue
            batch = take_batch(buffer, n_pes, backend.scheduling, backend.issue_window)
            longest_stream = max(v.scanned for _, v in batch)
            longest_checks = max(v.leader_checks for _, v in batch)
            check_cycles = -(-longest_checks // n_pes) if longest_checks else 0
            now += 1 + backend.pipeline_fill_cycles + check_cycles + longest_stream
        backend_finish = max(backend_finish, now)
        idle_total += idle

    total = max(fe_cycles, backend_finish)
    timing = CoupledTiming(
        total_cycles=total,
        frontend_cycles=fe_cycles,
        backend_finish=backend_finish,
        backend_idle_cycles=idle_total,
    )
    timing._n_sus = config.n_search_units
    return timing


def simulate(traces, name: str, config, energy_parameters=None) -> SimulationResult:
    """``TigrisSimulator(config).simulate`` on a list of records."""
    energy_parameters = energy_parameters or EnergyParameters()
    fe = simulate_frontend(traces, config)
    be = simulate_backend(traces, config)
    drain = min(fe.cycles, be.cycles) // max(
        1, len(traces) // max(config.n_recursion_units, 1) + 1
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
        energy_parameters,
    )
    return SimulationResult(
        workload_name=name,
        cycles=cycles,
        time_seconds=time_seconds,
        frontend=fe,
        backend=be,
        traffic=traffic,
        energy=energy,
    )
