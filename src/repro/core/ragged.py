"""Vectorized ragged-neighborhood (CSR) kernels for the front end.

Every front-end stage (normal estimation, Harris/SIFT keypoints, the
FPFH/SHOT/3DSC descriptors, voxel binning) consumes the ragged
per-query neighbor lists produced by the batched search layer and then
aggregates over each neighborhood.  This module is the shared
aggregation layer: neighbor lists are flattened once into CSR form —
one flat index array plus an ``offsets`` array of segment boundaries —
and every per-neighborhood reduction becomes a dense batched numpy
operation over the flat arrays (``np.add.reduceat`` segment sums,
``np.bincount`` weighted histograms, a single stacked
``np.linalg.eigh`` over all 3x3 neighborhood covariances at once).

This is the software form of Mesorasi's delayed aggregation: the
neighbor *search* (PR 1's batched backends) is decoupled from the
neighbor *aggregation*, which then runs as one data-parallel kernel per
stage instead of a per-point Python loop.

Determinism notes
-----------------
* ``segment_sum`` (``np.add.reduceat``) applies numpy's pairwise
  blocking within long segments, so its results can differ in the last
  ulp from a sequential per-neighbor loop (and from ``np.sum``, whose
  blocking differs again); all downstream comparisons are tolerance-
  or tie-rule-guarded.  Where bit-identity with a sequential reference
  loop is required (FPFH's weighted SPFH accumulation), use
  ``segment_sum_sequential`` or the chunked
  ``gathered_weighted_segment_sums`` — ``np.bincount`` accumulates one
  element at a time in flat order, replaying ``acc += x`` exactly.
* Empty segments reduce to the identity (0 for sums, the fill value
  for min/max) instead of ``reduceat``'s repeated-index misbehaviour.
* The gathering kernels (``gathered_moment_covariances`` here, FPFH's
  pair sweep, Harris's NMS) hold coordinates coordinate-major: a
  ``(D, m)`` buffer filled by one 1-D ``take`` per coordinate from a
  transposed copy, read back as contiguous rows, never ``(m, D)`` rows
  read through strided columns or ``axis=1`` reductions.  Each index
  array is range-checked once (``check_take``) and taken with
  ``mode="clip"``, which writes straight into the buffer.  They keep
  numpy's row-major summation orders, so results are bit-identical:
  ``reduceat`` over a contiguous row equals it over the strided column,
  a norm sums ``(x² + y²) + z²`` as ``np.linalg.norm(x, axis=1)`` does,
  and a dot product sums ``(a₀b₀ + a₂b₂) + a₁b₁``, the lane order of
  ``np.einsum("ij,ij->i")``.  ``tests/core/test_twostage.py``
  (``TestNumpyOrderRules``) pins the three rules on the installed numpy.
* ``np.linalg.eigh`` over a stacked ``(Q, 3, 3)`` input applies the
  same LAPACK routine per matrix as a scalar call, so batching itself
  introduces no divergence.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "RaggedNeighborhoods",
    "RadiusHits",
    "segment_sort_order",
    "csr_radius_select_csr",
    "lexsort_voxel_groups",
    "segment_sum",
    "segment_sum_sequential",
    "segment_mean",
    "segment_min",
    "segment_max",
    "segment_histogram",
    "segment_outer_sums",
    "gathered_moment_covariances",
    "gathered_weighted_segment_sums",
    "batched_eigh",
    "check_take",
]


class RaggedNeighborhoods:
    """CSR view of batched ragged neighbor-search results.

    ``indices`` is the concatenation of all per-query neighbor index
    lists; segment ``q`` occupies ``indices[offsets[q]:offsets[q + 1]]``.
    ``distances`` (optional) is the matching flat distance array.
    ``sq_distances`` (optional) holds the squared distances an exact
    backend's radius search compared against ``r * r`` — its acceptance
    operand, bit for bit, which a re-derived ``distances ** 2`` is not.
    Fresh backend results carry it (the nested-radius reuse cache
    filters on it) and :meth:`sorted_by_distance` keeps it; the
    consumer-side views :meth:`select` and :meth:`mask` drop it.
    Neighbor order within a segment is exactly the order the search
    backend returned (ascending index for unsorted radius queries — the
    PR 1 tie rule), so sequential segment reductions replay the seed
    loops' accumulation order.
    """

    __slots__ = ("indices", "offsets", "distances", "sq_distances", "_segment_ids")

    def __init__(
        self,
        indices: np.ndarray,
        offsets: np.ndarray,
        distances: np.ndarray | None = None,
        sq_distances: np.ndarray | None = None,
    ):
        self.indices = np.asarray(indices, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        if self.offsets.ndim != 1 or len(self.offsets) == 0:
            raise ValueError("offsets must be a non-empty 1-D array")
        if self.offsets[0] != 0 or self.offsets[-1] != len(self.indices):
            raise ValueError("offsets must start at 0 and end at len(indices)")
        if np.any(np.diff(self.offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        self.distances = (
            None if distances is None else np.asarray(distances, dtype=np.float64)
        )
        if self.distances is not None and len(self.distances) != len(self.indices):
            raise ValueError("distances must align with indices")
        self.sq_distances = (
            None
            if sq_distances is None
            else np.asarray(sq_distances, dtype=np.float64)
        )
        if self.sq_distances is not None and len(self.sq_distances) != len(
            self.indices
        ):
            raise ValueError("sq_distances must align with indices")
        self._segment_ids: np.ndarray | None = None

    @classmethod
    def from_lists(
        cls,
        neighbor_lists: Sequence[np.ndarray],
        dist_lists: Sequence[np.ndarray] | None = None,
    ) -> "RaggedNeighborhoods":
        """Flatten per-query ragged lists into CSR form."""
        counts = np.fromiter(
            (len(lst) for lst in neighbor_lists),
            dtype=np.int64,
            count=len(neighbor_lists),
        )
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        indices = (
            np.concatenate([np.asarray(lst, dtype=np.int64) for lst in neighbor_lists])
            if len(counts) and offsets[-1]
            else np.empty(0, dtype=np.int64)
        )
        distances = None
        if dist_lists is not None:
            distances = (
                np.concatenate(
                    [np.asarray(lst, dtype=np.float64) for lst in dist_lists]
                )
                if len(counts) and offsets[-1]
                else np.empty(0, dtype=np.float64)
            )
        return cls(indices, offsets, distances)

    # -- structure ---------------------------------------------------------

    @property
    def n_segments(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_entries(self) -> int:
        return len(self.indices)

    @property
    def counts(self) -> np.ndarray:
        """Per-segment neighbor count, ``(Q,)``."""
        return np.diff(self.offsets)

    @property
    def segment_ids(self) -> np.ndarray:
        """Owning segment of every flat entry, ``(total,)`` (cached)."""
        if self._segment_ids is None:
            self._segment_ids = np.repeat(
                np.arange(self.n_segments, dtype=np.int64), self.counts
            )
        return self._segment_ids

    def _segments(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-segment slices (views) of a flat per-entry array, one per
        segment: zero segments give an empty list."""
        bounds = self.offsets.tolist()
        return [flat[start:stop] for start, stop in zip(bounds[:-1], bounds[1:])]

    def to_lists(self) -> list[np.ndarray]:
        """Round-trip back to per-segment index lists."""
        return self._segments(self.indices)

    def to_list_pair(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Ragged ``(index_lists, dist_lists)`` view of this CSR.

        The format of the one list-returning query,
        :meth:`repro.registration.search.NeighborSearcher.radius_batch`:
        per-segment slices of the flat arrays (views, no copies).
        Requires ``distances``.
        """
        if self.distances is None:
            raise ValueError("to_list_pair requires distances")
        return self._segments(self.indices), self._segments(self.distances)

    def sorted_by_distance(self) -> "RaggedNeighborhoods":
        """New CSR with each segment stably re-ordered by distance.

        Replays the backends' per-row ``np.argsort(dists, kind="stable")``
        (the ``sort=True`` contract) as one vectorized lexsort over the
        flat arrays.  Requires ``distances``.
        """
        if self.distances is None:
            raise ValueError("sorted_by_distance requires distances")
        if self.n_entries == 0:
            return RaggedNeighborhoods(
                self.indices, self.offsets, self.distances, self.sq_distances
            )
        order = segment_sort_order(self.distances, self.segment_ids)
        return RaggedNeighborhoods(
            self.indices[order],
            self.offsets,
            self.distances[order],
            None if self.sq_distances is None else self.sq_distances[order],
        )

    def select(self, segments: np.ndarray) -> "RaggedNeighborhoods":
        """New CSR containing ``segments`` (rows), in the given order.

        A pure gather: duplicates and reorderings are allowed, entry
        order within each segment is preserved.  Used to assemble one
        stage's CSR from another's rows (e.g. FPFH's ``needed``-ordered
        support from the keypoint and extra search passes).
        """
        segments = np.asarray(segments, dtype=np.int64)
        counts = self.counts[segments]
        offsets = np.zeros(len(segments) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        ids = np.repeat(np.arange(len(segments), dtype=np.int64), counts)
        source = self.offsets[:-1][segments][ids] + (
            np.arange(offsets[-1], dtype=np.int64) - offsets[:-1][ids]
        )
        return RaggedNeighborhoods(
            self.indices[source],
            offsets,
            None if self.distances is None else self.distances[source],
        )

    def mask(self, keep: np.ndarray) -> "RaggedNeighborhoods":
        """New CSR with only the flat entries where ``keep`` is True.

        Within-segment order is preserved; segments may become empty.
        The common use is self-exclusion: ``r.mask(r.indices != centers)``.
        """
        keep = np.asarray(keep, dtype=bool)
        if len(keep) != self.n_entries:
            raise ValueError("mask must align with flat entries")
        counts = np.bincount(
            self.segment_ids[keep], minlength=self.n_segments
        ).astype(np.int64)
        offsets = np.zeros(self.n_segments + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return RaggedNeighborhoods(
            self.indices[keep],
            offsets,
            None if self.distances is None else self.distances[keep],
        )


def segment_sort_order(values: np.ndarray, segment_ids: np.ndarray) -> np.ndarray:
    """Stable per-segment ascending order of ``values`` as one lexsort.

    ``segment_ids`` must be non-decreasing (CSR flat order).  The
    returned permutation reorders flat entries so each segment is
    sorted ascending by its values with original order preserved on
    ties — bit-identical to running ``np.argsort(v, kind="stable")``
    per segment, done once for the whole batch (primary key segment,
    secondary value, position tiebreak).
    """
    position = np.arange(len(values), dtype=np.int64)
    return np.lexsort((position, values, segment_ids))


class RadiusHits:
    """Accepted radius-search pairs, packed once into the CSR result.

    The shared result builder of the tree and grid radius searches.  A
    backend feeds it squared distances in whatever order its schedule
    produces them — :meth:`add` for aligned ``(query row, point index)``
    pairs, :meth:`add_block` for one leaf scanned against a block of
    queries — and each call keeps the pairs with ``sq <= r * r``.
    :meth:`to_csr` then establishes the ascending-index-per-query
    contract with one ``argsort`` of the key ``row * n_points + index``:
    a point is accepted at most once per query, so the key is unique
    per hit and the order equals ``lexsort((index, row))`` exactly, at
    a fraction of the cost.  The result carries the accepted squared
    distances as ``sq_distances`` beside their square roots.
    """

    def __init__(self, n_queries: int, n_points: int, r: float):
        self.n_queries = n_queries
        self.n_points = n_points
        self.r_sq = r * r
        self._rows: list[np.ndarray] = []
        self._indices: list[np.ndarray] = []
        self._sq: list[np.ndarray] = []

    def add(self, rows: np.ndarray, indices: np.ndarray, sq: np.ndarray) -> None:
        """Keep pair ``(rows[i], indices[i])`` where ``sq[i] <= r * r``."""
        hit = sq <= self.r_sq
        if hit.any():
            self._rows.append(rows[hit])
            self._indices.append(indices[hit])
            self._sq.append(sq[hit])

    def add_block(
        self, rows: np.ndarray, indices: np.ndarray, sq: np.ndarray
    ) -> None:
        """Keep the hits of a C-contiguous ``(len(rows), len(indices))``
        block of squared distances between query ``rows`` and points
        ``indices``."""
        # 1-D nonzero over the raveled mask: 2-D nonzero is slower.
        flat = np.flatnonzero(sq <= self.r_sq)
        if len(flat):
            block_rows = flat // sq.shape[1]
            self._rows.append(rows[block_rows])
            self._indices.append(indices[flat - block_rows * sq.shape[1]])
            self._sq.append(sq.ravel()[flat])

    def to_csr(self) -> RaggedNeighborhoods:
        """The hits as CSR: ascending point index within each query row."""
        offsets = np.zeros(self.n_queries + 1, dtype=np.int64)
        if not self._rows:
            empty = np.empty(0, dtype=np.float64)
            return RaggedNeighborhoods(
                np.empty(0, dtype=np.int64), offsets, empty, empty
            )
        rows = np.concatenate(self._rows).astype(np.int64, copy=False)
        indices = np.concatenate(self._indices).astype(np.int64, copy=False)
        # Backends add hits leaf by leaf, so the keys arrive as ascending
        # runs, which the stable sort (timsort/radix) merges fastest.
        order = np.argsort(rows * self.n_points + indices, kind="stable")
        sq = np.concatenate(self._sq)[order]
        np.cumsum(np.bincount(rows, minlength=self.n_queries), out=offsets[1:])
        return RaggedNeighborhoods(indices[order], offsets, np.sqrt(sq), sq)


def csr_radius_select_csr(
    indices: np.ndarray,
    offsets: np.ndarray,
    sq_dists: np.ndarray,
    dists: np.ndarray,
    rows: np.ndarray,
    r: float,
    sort: bool = False,
) -> RaggedNeighborhoods:
    """Derive a radius-``r`` result from a cached larger-radius CSR.

    The nested-radius reuse kernel: given the CSR result of a radius
    search at some radius ``R >= r`` (``indices``/``offsets``/``dists``
    plus the squared distances the backend accepted, its result's
    ``sq_distances``), gather the requested ``rows`` and keep each entry
    iff ``sq_dist <= r * r`` — the exact acceptance predicate every
    exact backend applies, over the very values it compared — so the
    derived result is bit-identical to a fresh radius-``r`` query of
    those rows.
    Cached entries arrive in the backends' ascending-index order and
    filtering preserves it; ``sort=True`` applies the backends' stable
    per-row distance sort (:func:`segment_sort_order`).  Returns the
    CSR result natively — no list materialization anywhere.
    """
    rows = np.asarray(rows, dtype=np.int64)
    n_segments = len(offsets) - 1
    if len(rows) == n_segments and np.array_equal(rows, np.arange(n_segments)):
        # Every row in order (NE's and Harris's self-queries): one mask
        # over the flat arrays, new offsets from its running count.
        keep = sq_dists <= r * r
        running = np.zeros(len(keep) + 1, dtype=np.int64)
        np.cumsum(keep, out=running[1:])
        result = RaggedNeighborhoods(indices[keep], running[offsets], dists[keep])
    else:
        counts = np.diff(offsets)[rows]
        sel_offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=sel_offsets[1:])
        ids = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
        source = offsets[:-1][rows][ids] + (
            np.arange(sel_offsets[-1], dtype=np.int64) - sel_offsets[:-1][ids]
        )
        keep = sq_dists[source] <= r * r
        kept_source = source[keep]
        out_offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(np.bincount(ids[keep], minlength=len(rows)), out=out_offsets[1:])
        result = RaggedNeighborhoods(
            indices[kept_source], out_offsets, dists[kept_source]
        )
    return result.sorted_by_distance() if sort else result


def lexsort_voxel_groups(
    keys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group integer voxel keys: ``(order, sorted_keys, starts, counts)``.

    The lexsort -> boundary-scan preamble of voxel binning
    (``PointCloud.voxel_downsample``; ``VoxelMap`` groups packed keys
    instead): ``order`` sorts points by key; group ``g`` occupies
    ``order[starts[g]:starts[g] + counts[g]]`` and its key is
    ``sorted_keys[starts[g]]``.  ``keys`` must be non-empty ``(N, 3)``.
    """
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    sorted_keys = keys[order]
    boundaries = np.any(np.diff(sorted_keys, axis=0) != 0, axis=1)
    starts = np.concatenate(([0], np.nonzero(boundaries)[0] + 1))
    counts = np.diff(np.concatenate((starts, [len(order)])))
    return order, sorted_keys, starts, counts


# ---------------------------------------------------------------------------
# Segment reductions.
# ---------------------------------------------------------------------------


def _segment_reduce(ufunc, values: np.ndarray, offsets: np.ndarray, fill):
    """Apply ``ufunc.reduceat`` per segment, with empty segments = fill.

    ``reduceat`` returns ``values[i]`` for zero-width slices, which is
    wrong for empty neighborhoods; restricting the start indices to
    non-empty segments sidesteps it (consecutive non-empty starts bound
    exactly one non-empty segment, since empties have zero width).
    """
    values = np.asarray(values)
    counts = np.diff(offsets)
    out = np.full((len(counts),) + values.shape[1:], fill, dtype=values.dtype)
    nonempty = counts > 0
    if values.size and np.any(nonempty):
        out[nonempty] = ufunc.reduceat(values, offsets[:-1][nonempty], axis=0)
    return out


def segment_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment sum of ``values`` (1-D or (total, D)); empty -> 0.

    Uses ``reduceat``, whose pairwise blocking may differ from a
    sequential loop in the last ulp on long segments; reach for
    :func:`segment_sum_sequential` when exact loop order matters.
    """
    return _segment_reduce(np.add, values, offsets, 0)


def segment_sum_sequential(
    values: np.ndarray, segment_ids: np.ndarray, n_segments: int
) -> np.ndarray:
    """Per-segment sum with strict flat-order scalar accumulation.

    ``np.bincount`` accumulates ``out[ids[i]] += w[i]`` one element at
    a time in flat order, so this reproduces a per-neighborhood
    ``acc += x`` Python loop bit-for-bit — unlike ``reduceat``/``sum``,
    whose pairwise blocking reorders long additions.  Use it where
    bit-identity with a sequential reference matters more than the last
    ~20% of throughput.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        return np.bincount(segment_ids, weights=values, minlength=n_segments)
    return np.stack(
        [
            np.bincount(segment_ids, weights=values[:, column], minlength=n_segments)
            for column in range(values.shape[1])
        ],
        axis=1,
    )


def segment_mean(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment mean; empty segments yield 0 (guarded divide)."""
    sums = segment_sum(values, offsets)
    counts = np.diff(offsets)
    denom = np.maximum(counts, 1).astype(np.float64)
    if sums.ndim > 1:
        denom = denom.reshape((-1,) + (1,) * (sums.ndim - 1))
    return sums / denom


def segment_min(values: np.ndarray, offsets: np.ndarray, fill=np.inf) -> np.ndarray:
    """Per-segment minimum; empty segments yield ``fill``."""
    return _segment_reduce(np.minimum, values, offsets, fill)


def segment_max(values: np.ndarray, offsets: np.ndarray, fill=-np.inf) -> np.ndarray:
    """Per-segment maximum; empty segments yield ``fill``."""
    return _segment_reduce(np.maximum, values, offsets, fill)


def segment_histogram(
    segment_ids: np.ndarray,
    bins: np.ndarray,
    n_bins: int,
    n_segments: int,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Per-segment histogram via one ``bincount`` over flattened keys.

    Returns ``(n_segments, n_bins)`` — float64 when ``weights`` is
    given, int64 counts otherwise.  ``bins`` must already be clipped to
    ``[0, n_bins)``.
    """
    flat = segment_ids * np.int64(n_bins) + bins
    out = np.bincount(flat, weights=weights, minlength=n_segments * n_bins)
    return out.reshape(n_segments, n_bins)


def segment_outer_sums(
    vectors: np.ndarray,
    offsets: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Per-segment sum of (weighted) outer products: ``(Q, D, D)``.

    Computes ``sum_k w_k * v_k v_k^T`` per segment one symmetric
    component at a time, so peak extra memory is one flat array rather
    than a ``(total, D, D)`` stack.  Empty segments yield zeros.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    dims = vectors.shape[1]
    out = np.empty((len(offsets) - 1, dims, dims))
    left = vectors if weights is None else vectors * weights[:, None]
    for a in range(dims):
        for b in range(a, dims):
            component = segment_sum(left[:, a] * vectors[:, b], offsets)
            out[:, a, b] = component
            out[:, b, a] = component
    return out


_BLOCK_PAIRS = 1 << 20  # flat entries per chunk; bounds buffer memory


def segment_blocks(offsets: np.ndarray, block_pairs: int = _BLOCK_PAIRS):
    """Yield ``(seg_lo, seg_hi, lo, hi)`` chunks of ~block_pairs flat
    entries, always split at segment boundaries (a segment larger than
    the block gets its own chunk)."""
    n_segments = len(offsets) - 1
    seg_lo = 0
    while seg_lo < n_segments:
        seg_hi = int(
            np.searchsorted(offsets, offsets[seg_lo] + block_pairs, side="right") - 1
        )
        seg_hi = min(max(seg_hi, seg_lo + 1), n_segments)
        yield seg_lo, seg_hi, int(offsets[seg_lo]), int(offsets[seg_hi])
        seg_lo = seg_hi


def gathered_weighted_segment_sums(
    table: np.ndarray,
    row_ids: np.ndarray,
    weights: np.ndarray,
    offsets: np.ndarray,
    block_pairs: int = _BLOCK_PAIRS,
) -> np.ndarray:
    """Per-segment ``sum_j weights[j] * table[row_ids[j]]``, fused.

    The FPFH pass-3 kernel: gathers each chunk of table rows into a
    reused buffer, scales in place, and accumulates per segment with
    one ``bincount`` per column — strict flat-order scalar adds, so the
    result is bit-identical to a sequential ``acc += w * table[j]``
    loop (chunks split at segment boundaries, so every segment is
    reduced by exactly one bincount).  Peak extra memory is
    ``O(block_pairs * D)`` instead of a full ``(total, D)`` gather.
    """
    table = np.asarray(table, dtype=np.float64)
    dims = table.shape[1]
    n_segments = len(offsets) - 1
    out = np.zeros((n_segments, dims))
    total = int(offsets[-1]) if n_segments else 0
    if n_segments == 0 or total == 0:
        return out
    counts = np.diff(offsets)
    capacity = int(min(total, max(block_pairs, counts.max(initial=0))))
    gathered = np.empty((max(capacity, 1), dims))
    for seg_lo, seg_hi, lo, hi in segment_blocks(offsets, block_pairs):
        m = hi - lo
        if m == 0:
            continue
        block = gathered[:m]
        np.take(table, row_ids[lo:hi], axis=0, out=block)
        np.multiply(block, weights[lo:hi, None], out=block)
        local_ids = np.repeat(
            np.arange(seg_hi - seg_lo, dtype=np.int64), counts[seg_lo:seg_hi]
        )
        for column in range(dims):
            out[seg_lo:seg_hi, column] = np.bincount(
                local_ids, weights=block[:, column], minlength=seg_hi - seg_lo
            )
    return out


def check_take(indices: np.ndarray, size: int) -> None:
    """Raise ``IndexError`` unless every index lies in ``[0, size)``.

    The gathering kernels check each index array once with this and
    then take with ``np.take(..., out=..., mode="clip")``.  In its
    default ``mode="raise"`` a take with ``out`` first copies the whole
    output (so that a bad index leaves ``out`` intact), on every call.
    A negative index, which no neighborhood holds, raises too.
    """
    if len(indices) and (indices.min() < 0 or indices.max() >= size):
        raise IndexError(f"gather index out of range for size {size}")


def gathered_moment_covariances(
    source: np.ndarray,
    indices: np.ndarray,
    offsets: np.ndarray,
    center_source: np.ndarray | None = None,
    center_ids: np.ndarray | None = None,
    block_pairs: int = _BLOCK_PAIRS,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment covariance + mean of ``source[indices]``, fused.

    The kernel behind normal estimation and the Harris structure
    tensor: gathers each chunk of flat entries into reused
    coordinate-major ``(D, m)`` buffers (one 1-D ``take`` per
    coordinate from a transposed copy of ``source``), optionally
    re-expresses them in query-local coordinates
    (``- center_source[center_ids]``, recommended for positions so the
    raw moments stay well-conditioned at neighborhood scale; the
    covariance itself is translation-invariant), and assembles
    ``cov = M2 / n - mean mean^T`` one symmetric component at a time.
    Each ``reduceat`` runs over a contiguous row and sums exactly as it
    would over a row-major gather's strided column.
    Chunking at segment boundaries keeps peak extra memory at
    ``O(block_pairs)`` regardless of total neighborhood mass — large
    fresh allocations would otherwise pay a page-fault tax comparable
    to the arithmetic itself.  Returns ``((Q, D, D), (Q, D))``; empty
    segments yield zeros.
    """
    source_t = np.ascontiguousarray(np.asarray(source, dtype=np.float64).T)
    center_t = (
        None
        if center_source is None
        else np.ascontiguousarray(np.asarray(center_source, dtype=np.float64).T)
    )
    dims = source_t.shape[0]
    n_segments = len(offsets) - 1
    counts = np.diff(offsets)
    denominators = np.maximum(counts, 1).astype(np.float64)
    covariances = np.empty((n_segments, dims, dims))
    means = np.empty((n_segments, dims))
    if n_segments == 0:
        return covariances, means

    used = slice(int(offsets[0]), int(offsets[-1]))
    check_take(indices[used], source_t.shape[1])
    if center_t is not None:
        check_take(center_ids[used], center_t.shape[1])
    capacity = max(int(min(offsets[-1], max(block_pairs, counts.max(initial=0)))), 1)
    gathered = np.empty((dims, capacity))
    products = np.empty(capacity)

    for seg_lo, seg_hi, lo, hi in segment_blocks(offsets, block_pairs):
        m = hi - lo
        block_offsets = offsets[seg_lo : seg_hi + 1] - lo
        block_denoms = denominators[seg_lo:seg_hi]
        block = gathered[:, :m]
        for a in range(dims):
            np.take(source_t[a], indices[lo:hi], out=block[a], mode="clip")
            if center_t is not None:
                np.take(center_t[a], center_ids[lo:hi], out=products[:m], mode="clip")
                np.subtract(block[a], products[:m], out=block[a])
        block_means = means[seg_lo:seg_hi]
        for a in range(dims):
            block_means[:, a] = segment_sum(block[a], block_offsets) / block_denoms
        for a in range(dims):
            for b in range(a, dims):
                np.multiply(block[a], block[b], out=products[:m])
                second = segment_sum(products[:m], block_offsets) / block_denoms
                component = second - block_means[:, a] * block_means[:, b]
                covariances[seg_lo:seg_hi, a, b] = component
                covariances[seg_lo:seg_hi, b, a] = component
    return covariances, means


def batched_eigh(
    matrices: np.ndarray, valid: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` over a ``(Q, D, D)`` stack, masking bad rows.

    Rows where ``valid`` is False (degenerate / empty neighborhoods)
    are replaced by the identity before the solve — their eigenpairs
    are well-defined placeholders the caller overrides — so one LAPACK
    sweep covers the whole batch without NaN contamination.
    """
    matrices = np.asarray(matrices, dtype=np.float64)
    if valid is not None and not np.all(valid):
        matrices = matrices.copy()
        matrices[~valid] = np.eye(matrices.shape[-1])
    return np.linalg.eigh(matrices)
