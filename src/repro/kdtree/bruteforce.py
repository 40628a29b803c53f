"""Brute-force neighbor search.

The exhaustive reference against which every tree search is validated,
and the primitive the two-stage KD-tree's back-end performs on leaf sets
(paper Sec. 4.1: "the two-stage KD-tree enables exhaustive searches in
certain sub-trees").  All functions are fully vectorized.

Batch queries
-------------
:func:`sq_distances` is the shared squared-distance kernel behind the
batched entry points (:func:`nn_batch`, :func:`knn_batch`,
:func:`radius_batch_csr`).  It accumulates one coordinate at a time,
left to right, with elementwise ufuncs, so every output element is
produced by the same sequence of IEEE operations no matter how many
queries share the batch.  Batches are processed in cache-sized query
chunks (:func:`query_chunk`) with caller-provided scratch so the hot
loop never allocates large fresh buffers.  Each batch is validated whole
before any work (:func:`repro.kdtree._validate.check_batch`).  The
single-query :func:`nn`, :func:`knn` and :func:`radius` are independent
reference implementations for tests.

Tie-breaking is deterministic throughout: k-nearest membership is the
``k`` smallest by ``(distance, index)`` and radius results come back in
ascending index order.
"""

from __future__ import annotations

import numpy as np

from repro.core.ragged import RaggedNeighborhoods
from repro.kdtree._validate import check_batch

__all__ = [
    "nn",
    "knn",
    "radius",
    "nn_batch",
    "knn_batch",
    "radius_batch_csr",
    "pairwise_sq_distances",
    "sq_distances",
    "query_chunk",
]


def _as_2d(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"expected (N, k) array, got shape {points.shape}")
    return points


def pairwise_sq_distances(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Squared distances, shape (n_queries, n_points)."""
    queries = _as_2d(np.atleast_2d(queries))
    points = _as_2d(points)
    diff = queries[:, None, :] - points[None, :, :]
    return np.sum(diff * diff, axis=2)


def nn(points: np.ndarray, query: np.ndarray) -> tuple[int, float]:
    """Index and distance of the nearest point to ``query``."""
    points = _as_2d(points)
    if len(points) == 0:
        raise ValueError("cannot search an empty point set")
    diff = points - np.asarray(query, dtype=np.float64)
    sq = np.sum(diff * diff, axis=1)
    best = int(np.argmin(sq))
    return best, float(np.sqrt(sq[best]))


def knn(points: np.ndarray, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of the ``k`` nearest points, sorted ascending.

    Ties resolve by the shared (distance, index) rule, so this scalar
    reference agrees with :func:`knn_batch` on duplicate distances.
    """
    points = _as_2d(points)
    if k <= 0:
        raise ValueError("k must be positive")
    k = min(k, len(points))
    if k == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    diff = points - np.asarray(query, dtype=np.float64)
    sq = np.sum(diff * diff, axis=1)
    cols, vals = _select_k_rows(sq[None, :], k)
    return cols[0], np.sqrt(vals[0])


def radius(
    points: np.ndarray, query: np.ndarray, r: float, sort: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of all points within ``r`` of ``query``."""
    points = _as_2d(points)
    if not r >= 0:  # also rejects NaN
        raise ValueError("radius must be non-negative")
    diff = points - np.asarray(query, dtype=np.float64)
    sq = np.sum(diff * diff, axis=1)
    mask = sq <= r * r
    indices = np.nonzero(mask)[0].astype(np.int64)
    dists = np.sqrt(sq[mask])
    if sort:
        order = np.argsort(dists, kind="stable")
        return indices[order], dists[order]
    return indices, dists


def query_chunk(n_points: int, n_queries: int) -> int:
    """Queries per batch chunk so the (chunk, n_points) scratch stays
    cache-resident (~1 MB per buffer) — on large clouds the distance
    matrix must not spill to DRAM, and large fresh allocations are the
    dominant cost of naive batching."""
    return max(1, min(n_queries, 4096, int(65_536 // max(n_points, 1)) + 1))


def sq_distances(
    queries: np.ndarray,
    points: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
    points_t: np.ndarray | None = None,
) -> np.ndarray:
    """Row-deterministic squared distances, shape (n_queries, n_points).

    Accumulates one coordinate at a time with elementwise ufuncs, so row
    ``i`` is bit-identical whether computed alone or inside any batch.
    ``out``/``scratch`` are optional preallocated (n_queries, n_points)
    buffers; ``points_t`` an optional contiguous (k, N) transpose.
    """
    queries = _as_2d(np.atleast_2d(queries))
    points = _as_2d(points)
    n_queries, ndim = queries.shape
    if points.shape[1] != ndim:
        raise ValueError(
            f"queries have dimension {ndim}, points {points.shape[1]}"
        )
    if points_t is None:
        points_t = points.T
    if out is None:
        out = np.empty((n_queries, len(points)))
    if scratch is None:
        scratch = np.empty((n_queries, len(points)))
    np.subtract(queries[:, 0, None], points_t[0][None, :], out=out)
    np.square(out, out=out)
    for j in range(1, ndim):
        np.subtract(queries[:, j, None], points_t[j][None, :], out=scratch)
        np.square(scratch, out=scratch)
        out += scratch
    return out


def nn_batch(
    points: np.ndarray, queries: np.ndarray, points_t: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized nearest neighbor for every row of ``queries``.

    Processes queries in cache-sized chunks with preallocated scratch;
    ties resolve to the lowest point index (``argmin`` semantics).
    """
    points = _as_2d(points)
    queries = check_batch(queries, points.shape[1])
    if len(points) == 0:
        raise ValueError("cannot search an empty point set")
    if points_t is None:
        points_t = np.ascontiguousarray(points.T)
    indices = np.empty(len(queries), dtype=np.int64)
    dists = np.empty(len(queries))
    chunk = query_chunk(len(points), len(queries))
    sq = np.empty((chunk, len(points)))
    scratch = np.empty((chunk, len(points)))
    for start in range(0, len(queries), chunk):
        stop = min(start + chunk, len(queries))
        c = stop - start
        block = sq_distances(
            queries[start:stop], points, sq[:c], scratch[:c], points_t
        )
        best = np.argmin(block, axis=1)
        indices[start:stop] = best
        dists[start:stop] = np.sqrt(block[np.arange(c), best])
    return indices, dists


def _select_k_rows(
    block: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic k-smallest per row of ``block``: membership is the
    ``k`` smallest by ``(value, column)`` and rows come back sorted by
    that same key.  Returns (columns (c, k), values (c, k))."""
    c, n = block.shape
    if k >= n:
        cols = np.broadcast_to(np.arange(n, dtype=np.int64), (c, n)).copy()
    else:
        cols = np.argpartition(block, k - 1, axis=1)[:, :k].astype(np.int64)
        vals = np.take_along_axis(block, cols, axis=1)
        kth = vals.max(axis=1)
        # argpartition breaks value ties at the k-th boundary arbitrarily;
        # repair those rare rows to the (value, column) rule.
        n_eq_total = np.count_nonzero(block == kth[:, None], axis=1)
        n_eq_kept = np.count_nonzero(vals == kth[:, None], axis=1)
        for row in np.nonzero(n_eq_total > n_eq_kept)[0]:
            below = np.nonzero(block[row] < kth[row])[0]
            ties = np.nonzero(block[row] == kth[row])[0]
            cols[row] = np.concatenate([below, ties[: k - len(below)]])
    vals = np.take_along_axis(block, cols, axis=1)
    order = np.lexsort((cols, vals), axis=1)
    return np.take_along_axis(cols, order, axis=1), np.take_along_axis(
        vals, order, axis=1
    )


def knn_batch(
    points: np.ndarray,
    queries: np.ndarray,
    k: int,
    points_t: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized kNN for every row of ``queries``.

    Returns rectangular (n_queries, min(k, n)) index and distance arrays
    sorted ascending, ties resolved by lowest point index.
    """
    points = _as_2d(points)
    queries = check_batch(queries, points.shape[1])
    if k <= 0:
        raise ValueError("k must be positive")
    if len(points) == 0:
        raise ValueError("cannot search an empty point set")
    k = min(k, len(points))
    if points_t is None:
        points_t = np.ascontiguousarray(points.T)
    indices = np.empty((len(queries), k), dtype=np.int64)
    dists = np.empty((len(queries), k))
    chunk = query_chunk(len(points), len(queries))
    sq = np.empty((chunk, len(points)))
    scratch = np.empty((chunk, len(points)))
    for start in range(0, len(queries), chunk):
        stop = min(start + chunk, len(queries))
        c = stop - start
        block = sq_distances(
            queries[start:stop], points, sq[:c], scratch[:c], points_t
        )
        cols, vals = _select_k_rows(block, k)
        indices[start:stop] = cols
        dists[start:stop] = np.sqrt(vals)
    return indices, dists


def radius_batch_csr(
    points: np.ndarray,
    queries: np.ndarray,
    r: float,
    sort: bool = False,
    points_t: np.ndarray | None = None,
) -> RaggedNeighborhoods:
    """Vectorized radius search returning the CSR result natively.

    Each chunk's hits already come out flat (``nonzero`` over the
    raveled mask walks row-major, so hits are grouped by query with
    ascending point index within each query); chunks concatenate into
    one flat index/distance pair plus offsets, with no per-row Python
    loop anywhere.  The accepted squared distances ride along as
    ``sq_distances``.  ``sort=True`` applies the stable per-query
    distance sort once, via :func:`repro.core.ragged.segment_sort_order`.
    """
    points = _as_2d(points)
    queries = check_batch(queries, points.shape[1], r)
    if points_t is None:
        points_t = np.ascontiguousarray(points.T)
    r_sq = r * r
    n_queries = len(queries)
    chunk = query_chunk(len(points), n_queries)
    sq = np.empty((chunk, len(points)))
    scratch = np.empty((chunk, len(points)))
    chunk_cols: list[np.ndarray] = []
    chunk_sq: list[np.ndarray] = []
    chunk_counts: list[np.ndarray] = []
    for start in range(0, n_queries, chunk):
        stop = min(start + chunk, n_queries)
        c = stop - start
        block = sq_distances(
            queries[start:stop], points, sq[:c], scratch[:c], points_t
        )
        # 1D nonzero over the raveled mask: 2D nonzero is far slower.
        flat = np.nonzero((block <= r_sq).ravel())[0]
        hit_rows = flat // block.shape[1]
        chunk_cols.append(flat - hit_rows * block.shape[1])
        chunk_sq.append(block.ravel()[flat])
        chunk_counts.append(np.bincount(hit_rows, minlength=c))
    counts = (
        np.concatenate(chunk_counts)
        if chunk_counts
        else np.zeros(n_queries, dtype=np.int64)
    )
    offsets = np.zeros(n_queries + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    flat_idx = (
        np.concatenate(chunk_cols).astype(np.int64, copy=False)
        if chunk_cols
        else np.empty(0, dtype=np.int64)
    )
    flat_sq = (
        np.concatenate(chunk_sq) if chunk_sq else np.empty(0, dtype=np.float64)
    )
    result = RaggedNeighborhoods(flat_idx, offsets, np.sqrt(flat_sq), flat_sq)
    if sort:
        result = result.sorted_by_distance()
    return result

