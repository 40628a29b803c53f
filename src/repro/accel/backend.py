"""Back-end (Search Unit) timing model (paper Sec. 5.3, Fig. 10).

Leaf visits issued by the front-end are routed to Search Units by the
leaf id's low-order bits (the paper's simple, insensitive mapping).
Each SU batches queries onto its PE array:

* **MQSN** — all PEs of a batch process queries from the *same* leaf
  set; the node stream is fetched once and flows through the systolic
  array (query-stationary).  Memory-efficient; utilization depends on
  how many same-leaf queries the issue logic can gather.
* **MQMN** — PEs take any queries; batches always fill, but every PE
  streams its own node set (traffic multiplies).

Per-batch cycles = pipeline fill + the longest node stream in the
batch, plus the leader-check computations of the approximate search
(executed on the same PEs, Sec. 5.3).  A per-SU LRU node cache serves
repeat leaf-set fetches, cutting Points Buffer traffic (Fig. 13).

The model runs on the columns of the workload's
:class:`~repro.core.trace.TraceTable`.  Visits are routed to SUs by a
stable sort on ``leaf_id % n_sus``, so each SU sees its visits in trace
order; :func:`take_batch` forms every batch on integer keys; the
per-batch maxima and sums are ``reduceat`` calls over the visits in
batch order; and the node cache is walked once per MQSN batch or once
per precise MQMN visit.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.accel.config import AcceleratorConfig
from repro.accel.memory import TrafficCounters
from repro.accel.workload import SearchWorkload
from repro.core.trace import TraceTable

__all__ = ["BackEndReport", "simulate_backend", "take_batch"]


@dataclass
class BackEndReport:
    """Back-end simulation outcome."""

    cycles: int
    busy_cycles: int
    utilization: float
    traffic: TrafficCounters
    distance_computations: int
    n_batches: int
    node_cache_hits: int
    node_cache_misses: int


def batch_keys(
    trace: TraceTable, visits: np.ndarray, config: AcceleratorConfig
) -> tuple[list[int], int]:
    """The batch former's keys for ``visits`` and its window.

    A systolic MQSN batch streams exactly one node source — the Input
    Point Buffer for precise visits, the Result Buffer for followers —
    so its key is the pair (leaf id, precise/approximate), packed as
    ``leaf_id * 2 + approximate``, and the issue logic examines
    ``issue_window`` entries (Sec. 5.3 searches in groups of 32).  MQMN
    batches are first-come-first-served regardless of leaf: one key
    for every visit and a window the batch always fills.
    """
    if config.backend.scheduling == "mqsn":
        keys = trace.leaf_id[visits] * 2 + trace.approximate[visits]
        return keys.tolist(), config.backend.issue_window
    return [0] * len(visits), config.pes_per_su


def take_batch(
    keys: list[int], items: list[int], head: int, end: int, n_pes: int, window: int
) -> int:
    """Move the next PE batch of the queue ``items[head:end]`` to its head.

    Mirrors the paper's issue logic: the head entry is the search key,
    and the entries among the next ``window`` with the same key join it,
    in queue order, until the batch holds ``n_pes``.  The batch becomes
    ``items[head:head + size]``; the entries examined but not taken
    follow it in their order, so the queue resumes at ``head + size``.
    ``keys`` holds the entries' keys and is reordered alongside.
    Returns ``size``.  Because the window is bounded, a leaf's visits
    recur across separated batches — exactly the reuse the node cache
    exists to capture.
    """
    key = keys[head]
    limit = head + 1 + min(window, end - head - 1)
    run = min(limit - head - 1, n_pes - 1)
    if keys[head + 1 : head + 1 + run].count(key) == run:
        return run + 1  # every examined entry joins the batch
    taken_keys, taken_items = [key], [items[head]]
    passed_keys, passed_items = [], []
    stop = head + 1
    while stop < limit and len(taken_keys) < n_pes:
        if keys[stop] == key:
            taken_keys.append(key)
            taken_items.append(items[stop])
        else:
            passed_keys.append(keys[stop])
            passed_items.append(items[stop])
        stop += 1
    keys[head:stop] = taken_keys + passed_keys
    items[head:stop] = taken_items + passed_items
    return len(taken_keys)


def route(trace: TraceTable, visits: np.ndarray, n_sus: int):
    """``visits`` grouped by Search Unit (``leaf_id % n_sus``), each
    SU's in their given order, and the end of each SU's group."""
    su = trace.leaf_id[visits] % n_sus
    grouped = visits[np.argsort(su, kind="stable")]
    return grouped, np.cumsum(np.bincount(su, minlength=n_sus)).tolist()


def _lru_hits(leaf_ids: list[int], units: list[int], capacity: int) -> np.ndarray:
    """Hit flags of an LRU node cache of ``capacity`` leaf sets over the
    accesses ``leaf_ids``; each unit of ``units`` has its own cache."""
    hits = []
    cache: OrderedDict[int, None] = OrderedDict()
    unit = None
    for leaf_id, su in zip(leaf_ids, units):
        if su != unit:
            cache.clear()
            unit = su
        if leaf_id in cache:
            cache.move_to_end(leaf_id)
            hits.append(True)
            continue
        hits.append(False)
        cache[leaf_id] = None
        if len(cache) > capacity:
            cache.popitem(last=False)
    return np.array(hits, dtype=bool)


def simulate_backend(
    workload: SearchWorkload, config: AcceleratorConfig
) -> BackEndReport:
    """Replay all leaf visits on the SU/PE arrays."""
    trace = workload.trace
    n_sus = config.n_search_units
    n_pes = config.pes_per_su
    backend = config.backend

    # Route active (non-pruned) leaf visits to SUs by leaf-id low bits,
    # then drain each SU's queue into batches.
    visits, su_ends = route(trace, np.flatnonzero(~trace.pruned), n_sus)
    keys, window = batch_keys(trace, visits, config)
    items = visits.tolist()
    sizes = []
    start = 0
    for end in su_ends:
        head = start
        while head < end:
            size = take_batch(keys, items, head, end, n_pes, window)
            sizes.append(size)
            head += size
        start = end

    # The visits in batch order, batch by batch, SU by SU.
    order = np.array(items, dtype=np.int64)
    sizes = np.array(sizes, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    leaf_ids = trace.leaf_id[order]
    units = leaf_ids % n_sus
    scanned = trace.scanned[order]
    checks = trace.leader_checks[order]
    approximate = trace.approximate[order]
    longest_stream = np.maximum.reduceat(scanned, starts)
    longest_checks = np.maximum.reduceat(checks, starts)
    # Leader checks reuse the PE array in parallel (Sec. 5.3: "We reuse
    # the PEs in the SU for these computations"), so a buffer of L
    # leaders costs ceil(L / PEs) cycles, not L.
    batch_cycles = (
        1  # issue (associative search, amortized)
        + backend.pipeline_fill_cycles
        + -(-longest_checks // n_pes)
        + longest_stream
    )
    su_first = np.flatnonzero(np.diff(units[starts], prepend=-1))
    total_cycles = int(np.add.reduceat(batch_cycles, su_first).max(initial=0))
    total_compute = int(scanned.sum() + checks.sum())

    # Node cache: MQSN fetches one shared node stream per precise batch
    # (all one leaf), MQMN one stream per precise visit.
    if backend.scheduling == "mqsn":
        precise = ~approximate[starts]
        fetch = starts[precise]
        streams = longest_stream[precise]
    else:
        fetch = np.flatnonzero(~approximate)
        streams = scanned[fetch]
    hit = _lru_hits(
        leaf_ids[fetch].tolist(), units[fetch].tolist(), backend.node_cache_entries
    )

    traffic = TrafficCounters()
    traffic.be_query_buffer += len(order)  # BQB pops
    traffic.query_buffer += len(order)  # query point fetches
    traffic.node_cache += int(streams[hit].sum())
    traffic.points_buffer += int(streams[~hit].sum())
    traffic.result_buffer += int(scanned[approximate].sum())  # leader-result reads
    traffic.leader_buffer += int(checks.sum())
    traffic.result_buffer += int(np.maximum(trace.result_size[order], 1).sum())
    # Result spills: the double-buffered Result Buffer writes final
    # results out to DRAM once per query result.
    traffic.dram += workload.total_results

    capacity = total_cycles * n_sus * n_pes
    utilization = total_compute / capacity if capacity else 0.0
    n_hits = int(np.count_nonzero(hit))
    return BackEndReport(
        cycles=total_cycles,
        busy_cycles=total_compute,
        utilization=utilization,
        traffic=traffic,
        distance_computations=total_compute,
        n_batches=len(sizes),
        node_cache_hits=n_hits,
        node_cache_misses=len(hit) - n_hits,
    )
