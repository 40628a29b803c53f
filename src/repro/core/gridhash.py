"""Uniform voxel-grid hash search (paper Sec. 6, "other search structures").

The paper's DSE treats the search structure itself as a design knob:
the two-stage KD-tree wins its comparison, but the natural rival for
uniformly dense LiDAR frames is a flat voxel grid — O(1) cell lookup,
no tree descent at all.  :class:`GridHashIndex` is that rival as a
first-class backend: points are binned into cubic cells of side
``cell_size``; each query probes only the 3^d cells surrounding its
own (its Chebyshev-1 neighborhood) and scans their members.

Approximation contract (pinned by tests/core/test_gridhash.py):

* ``radius_batch_csr`` probes the fixed 3^d neighborhood, so the
  result is **exact** (bit-identical to brute force, same ascending-
  index order and tie rules as every exact backend) whenever
  ``r <= cell_size`` and no candidate cap triggers.  For larger radii
  neighbors beyond the probed cells are (deliberately) missed — that
  is the approximation the DSE sweeps against accuracy.
* ``max_candidates`` caps the per-query work: each query keeps only
  its first ``max_candidates`` candidates — in deterministic probe
  order (cells in lexicographic offset order, ascending point index
  within a cell) — **before** the distance filter.  The candidate set
  therefore depends only on the query row, never on the radius, so a
  capped search at radius ``r`` equals the capped search at any
  ``R >= r`` filtered down to ``r`` — exactly the nested-radius
  contract :class:`~repro.registration.search.RadiusReuseCache`
  relies on.
* ``nn_batch``/``knn_batch`` expand Chebyshev rings outward from the
  query's cell and are **always exact**: ring ``m+1`` can hold nothing
  closer than ``m * cell_size``, so the scan retires once the current
  k-th best beats that bound (strictly — a tie defers retirement one
  ring, the (distance, index) rule shared with the exact backends).  The
  candidate cap does not apply to nn/knn.

Work accounting: ``traversal_steps`` counts cell probes (the hash
lookups an accelerator address unit would issue), ``nodes_visited``
counts candidate distance computations, matching the "nodes visited"
unit of Fig. 6.  All schedules are deterministic.  Each batch is
validated whole before any work
(:func:`repro.kdtree._validate.check_batch`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.core.ragged import RadiusHits, RaggedNeighborhoods
from repro.kdtree._validate import check_batch
from repro.kdtree.stats import SearchStats

__all__ = ["GridHashConfig", "GridHashIndex"]

# Refuse linearized grids whose cell count could overflow the int64
# key space (practically unreachable for LiDAR frames; guards against
# degenerate cell sizes).
_MAX_LINEAR_CELLS = 1 << 62


@dataclass(frozen=True)
class GridHashConfig:
    """Knobs of the voxel-hash backend (both are DSE sweep axes).

    ``cell_size``
        Side length of the cubic hash cells.  Radius searches are exact
        up to this radius; it also sets the nn/knn ring granularity.
    ``max_candidates``
        Per-query candidate cap for radius searches (``None`` = scan
        every candidate in the probed cells).  Applied in deterministic
        probe order *before* the distance filter — see the module
        docstring for why that ordering is load-bearing.
    """

    cell_size: float = 1.0
    max_candidates: int | None = None

    def __post_init__(self):
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        if self.max_candidates is not None and self.max_candidates < 1:
            raise ValueError("max_candidates must be >= 1 (or None)")


class GridHashIndex:
    """Flat voxel-hash index over a fixed point set.

    Implements the shared batch interface (``nn_batch``, ``knn_batch``,
    ``radius_batch_csr``), with the approximation contract described in
    the module docstring.  Cells are linearized over the
    occupied bounding box and stored as a sorted-key CSR: member lookup
    is one ``searchsorted`` per probed cell, members within a cell are
    in ascending point-index order.
    """

    def __init__(self, points: np.ndarray, config: GridHashConfig | None = None):
        self._config = config or GridHashConfig()
        self._points = np.array(points, dtype=np.float64)
        if self._points.ndim != 2 or len(self._points) == 0:
            raise ValueError("need a non-empty (n, d) point array")
        self._cell = float(self._config.cell_size)
        cells = np.floor(self._points / self._cell).astype(np.int64)
        self._cmin = cells.min(axis=0)
        self._cmax = cells.max(axis=0)
        dims = self._cmax - self._cmin + 1
        total = 1
        for d in dims:
            total *= int(d)
        if total >= _MAX_LINEAR_CELLS:
            raise ValueError(
                "occupied cell grid too large to linearize; "
                "increase cell_size"
            )
        self._dims = dims
        strides = np.ones(len(dims), dtype=np.int64)
        for i in range(len(dims) - 2, -1, -1):
            strides[i] = strides[i + 1] * dims[i + 1]
        self._strides = strides
        lin = (cells - self._cmin) @ strides
        # Stable sort: members of a cell stay in ascending point index.
        order = np.argsort(lin, kind="stable")
        sorted_lin = lin[order]
        n = len(order)
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(sorted_lin[1:], sorted_lin[:-1], out=first[1:])
        self._order = order
        self._keys = sorted_lin[first]
        self._starts = np.append(np.flatnonzero(first), n).astype(np.int64)
        # Probe offsets for radius searches: the 3^d Chebyshev-1
        # neighborhood in lexicographic order (the deterministic
        # candidate order the max_candidates cap truncates).
        d = self._points.shape[1]
        self._probe_offsets = np.array(
            list(itertools.product((-1, 0, 1), repeat=d)), dtype=np.int64
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def n(self) -> int:
        return len(self._points)

    @property
    def ndim(self) -> int:
        return self._points.shape[1]

    @property
    def cell_size(self) -> float:
        return self._cell

    @property
    def n_occupied_cells(self) -> int:
        return len(self._keys)

    def __repr__(self) -> str:
        return (
            f"GridHashIndex(n={self.n}, cell_size={self._cell}, "
            f"occupied={self.n_occupied_cells})"
        )

    # ------------------------------------------------------------------
    # Radius search
    # ------------------------------------------------------------------

    def radius_batch_csr(
        self,
        queries: np.ndarray,
        r: float,
        stats: SearchStats | None = None,
        sort: bool = False,
    ) -> RaggedNeighborhoods:
        """Radius search returning the CSR result natively.

        Exact iff ``r <= cell_size`` and no candidate cap triggers; see
        the module docstring.  Fully vectorized: one ``searchsorted``
        over all Q * 3^d probed cells, one flat CSR gather, one fused
        squared-distance filter — the kept flat arrays and their query
        offsets ARE the result, no per-query lists anywhere.
        """
        queries = check_batch(queries, self.ndim, r)
        n_queries = len(queries)
        n_slots = len(self._probe_offsets)

        qcells = np.floor(queries / self._cell).astype(np.int64)
        probed = qcells[:, None, :] + self._probe_offsets[None, :, :]
        rel = probed - self._cmin
        in_box = np.all((rel >= 0) & (rel < self._dims), axis=-1).ravel()
        lin = (rel @ self._strides).ravel()
        lin[~in_box] = -1
        pos = np.searchsorted(self._keys, lin)
        pos_c = np.minimum(pos, len(self._keys) - 1)
        hit = in_box & (self._keys[pos_c] == lin)
        counts = np.where(hit, self._starts[pos_c + 1] - self._starts[pos_c], 0)

        # Flat candidate gather: slots of one query are contiguous, so
        # candidates come out grouped by query, cells in probe order,
        # ascending index within each cell.
        slot_off = np.zeros(n_queries * n_slots + 1, dtype=np.int64)
        np.cumsum(counts, out=slot_off[1:])
        total = int(slot_off[-1])
        slot_ids = np.repeat(np.arange(n_queries * n_slots, dtype=np.int64), counts)
        base = np.where(hit, self._starts[pos_c], 0)
        source = base[slot_ids] + (
            np.arange(total, dtype=np.int64) - slot_off[:-1][slot_ids]
        )
        cand = self._order[source]
        qid = slot_ids // n_slots

        # Candidate cap BEFORE the distance filter (radius-independent
        # candidate sets — the nested-radius reuse contract).
        cap = self._config.max_candidates
        if cap is not None and total:
            qoff = np.zeros(n_queries + 1, dtype=np.int64)
            np.cumsum(np.bincount(qid, minlength=n_queries), out=qoff[1:])
            rank = np.arange(total, dtype=np.int64) - qoff[:-1][qid]
            keep_cap = rank < cap
            cand = cand[keep_cap]
            qid = qid[keep_cap]
            total = len(cand)

        # Fused per-coordinate squared distances (the shared acceptance
        # operand of every exact backend).  The hits helper restores the
        # ascending-index order per query (cells are overlap-free, so a
        # point is a candidate at most once); sort=True replays the
        # backends' stable distance sort on top.
        hits = RadiusHits(n_queries, self.n, r)
        if total:
            diff = self._points[cand] - queries[qid]
            sq = diff[:, 0] * diff[:, 0]
            for c in range(1, diff.shape[1]):
                sq += diff[:, c] * diff[:, c]
            hits.add(qid, cand, sq)
        result = hits.to_csr()
        if sort:
            result = result.sorted_by_distance()

        if stats is not None:
            stats.traversal_steps += n_queries * n_slots
            stats.nodes_visited += total
            stats.queries += n_queries
            stats.results_returned += result.n_entries
        return result

    # ------------------------------------------------------------------
    # nn / knn: expanding Chebyshev rings (always exact)
    # ------------------------------------------------------------------

    def _ring_members(self, qcell: np.ndarray, m: int) -> tuple[np.ndarray, int]:
        """Point indices in cells at Chebyshev cell-distance exactly
        ``m`` from ``qcell`` (probe order), plus the probe count."""
        if m == 0:
            offsets = np.zeros((1, self.ndim), dtype=np.int64)
        else:
            span = np.arange(-m, m + 1, dtype=np.int64)
            grids = np.meshgrid(*([span] * self.ndim), indexing="ij")
            offsets = np.stack([g.ravel() for g in grids], axis=1)
            offsets = offsets[np.abs(offsets).max(axis=1) == m]
        probed = qcell[None, :] + offsets
        rel = probed - self._cmin
        in_box = np.all((rel >= 0) & (rel < self._dims), axis=-1)
        lin = (rel @ self._strides)
        lin[~in_box] = -1
        pos = np.searchsorted(self._keys, lin)
        pos_c = np.minimum(pos, len(self._keys) - 1)
        hit = in_box & (self._keys[pos_c] == lin)
        counts = np.where(hit, self._starts[pos_c + 1] - self._starts[pos_c], 0)
        total = int(counts.sum())
        if not total:
            return np.empty(0, dtype=np.int64), len(offsets)
        ids = np.repeat(np.arange(len(offsets), dtype=np.int64), counts)
        off = np.zeros(len(offsets) + 1, dtype=np.int64)
        np.cumsum(counts, out=off[1:])
        base = np.where(hit, self._starts[pos_c], 0)
        source = base[ids] + (np.arange(total, dtype=np.int64) - off[:-1][ids])
        return self._order[source], len(offsets)

    def _knn(
        self, query: np.ndarray, k: int, stats: SearchStats | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Ring scan for one validated query: the ``k <= n`` nearest
        neighbors, ascending (distance, index)."""
        qcell = np.floor(query / self._cell).astype(np.int64)
        # No occupied cell lies beyond this ring; an absolute stop.
        max_ring = int(
            np.maximum(qcell - self._cmin, self._cmax - qcell).max(initial=0)
        )
        cand_parts: list[np.ndarray] = []
        sq_parts: list[np.ndarray] = []
        n_found = 0
        probes = 0
        visits = 0
        m = 0
        while True:
            members, n_probes = self._ring_members(qcell, m)
            probes += n_probes
            if len(members):
                diff = self._points[members] - query
                sq = diff[:, 0] * diff[:, 0]
                for c in range(1, diff.shape[1]):
                    sq += diff[:, c] * diff[:, c]
                visits += len(members)
                cand_parts.append(members)
                sq_parts.append(sq)
                n_found += len(members)
            if m > max_ring:
                break
            if n_found >= k:
                all_sq = np.concatenate(sq_parts)
                worst_sq = np.partition(all_sq, k - 1)[k - 1]
                # Ring m+1 holds nothing closer than m * cell_size; a
                # tie at exactly that bound could still win on index,
                # so retire only on a strict beat.
                bound = m * self._cell
                if worst_sq < bound * bound:
                    break
            m += 1
        all_cand = np.concatenate(cand_parts)
        all_sq = np.concatenate(sq_parts)
        order = np.lexsort((all_cand, all_sq))[:k]
        if stats is not None:
            stats.traversal_steps += probes
            stats.nodes_visited += visits
            stats.queries += 1
            stats.results_returned += k
        return all_cand[order], np.sqrt(all_sq[order])

    def nn_batch(
        self, queries: np.ndarray, stats: SearchStats | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Nearest neighbor per row: ((Q,), (Q,)) arrays.

        Vectorized fast path: one probe of every query's 3^d
        neighborhood (rings 0 and 1 at once) resolves a query whenever
        its best candidate is *strictly* inside one cell size — ring 2
        can hold nothing closer.  Unresolved queries (empty
        neighborhood, or a best at >= cell_size that an outer ring
        could still beat or tie) fall back to the per-query ring scan.
        Results equal the ring scan's bit for bit; work counters
        reflect the schedule executed (the fallback re-probes its inner
        rings), as with the tree backends' batch frontiers.
        """
        queries = check_batch(queries, self.ndim)
        n_queries = len(queries)
        n_slots = len(self._probe_offsets)
        indices = np.full(n_queries, -1, dtype=np.int64)
        best_sq = np.full(n_queries, np.inf)

        qcells = np.floor(queries / self._cell).astype(np.int64)
        rel = (qcells[:, None, :] + self._probe_offsets[None, :, :]) - self._cmin
        in_box = np.all((rel >= 0) & (rel < self._dims), axis=-1).ravel()
        lin = (rel @ self._strides).ravel()
        lin[~in_box] = -1
        pos = np.searchsorted(self._keys, lin)
        pos_c = np.minimum(pos, len(self._keys) - 1)
        hit = in_box & (self._keys[pos_c] == lin)
        counts = np.where(hit, self._starts[pos_c + 1] - self._starts[pos_c], 0)
        slot_off = np.zeros(n_queries * n_slots + 1, dtype=np.int64)
        np.cumsum(counts, out=slot_off[1:])
        total = int(slot_off[-1])
        if total:
            slot_ids = np.repeat(
                np.arange(n_queries * n_slots, dtype=np.int64), counts
            )
            base = np.where(hit, self._starts[pos_c], 0)
            source = base[slot_ids] + (
                np.arange(total, dtype=np.int64) - slot_off[:-1][slot_ids]
            )
            cand = self._order[source]
            qid = slot_ids // n_slots
            diff = self._points[cand] - queries[qid]
            sq = diff[:, 0] * diff[:, 0]
            for c in range(1, diff.shape[1]):
                sq += diff[:, c] * diff[:, c]
            # Per-query lexicographic minimum over (sq, index).
            order = np.lexsort((cand, sq, qid))
            group_first = np.empty(total, dtype=bool)
            group_first[0] = True
            np.not_equal(qid[order][1:], qid[order][:-1], out=group_first[1:])
            winners = order[group_first]
            indices[qid[winners]] = cand[winners]
            best_sq[qid[winners]] = sq[winners]
        if stats is not None:
            stats.traversal_steps += n_queries * n_slots
            stats.nodes_visited += total
            stats.queries += n_queries
            stats.results_returned += n_queries

        resolved = best_sq < self._cell * self._cell
        dists = np.sqrt(best_sq)
        if not np.all(resolved):
            # The fallback ring scan re-probes rings 0-1 on its way
            # out; its probe and distance work is charged on top of the
            # fast path's — counters reflect the schedule executed.
            fallback = SearchStats() if stats is not None else None
            for i in np.flatnonzero(~resolved):
                row_idx, row_dist = self._knn(queries[i], 1, fallback)
                indices[i], dists[i] = row_idx[0], row_dist[0]
            if stats is not None:
                stats.traversal_steps += fallback.traversal_steps
                stats.nodes_visited += fallback.nodes_visited
        return indices, dists

    def knn_batch(
        self,
        queries: np.ndarray,
        k: int,
        stats: SearchStats | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """kNN per row: (Q, min(k, n)) arrays, one ring scan per row."""
        queries = check_batch(queries, self.ndim)
        if k <= 0:
            raise ValueError("k must be positive")
        k = min(k, self.n)
        indices = np.empty((len(queries), k), dtype=np.int64)
        dists = np.empty((len(queries), k))
        for i, query in enumerate(queries):
            indices[i], dists[i] = self._knn(query, k, stats)
        return indices, dists
