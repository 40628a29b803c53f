"""Fast Point Feature Histograms (paper Table 1: FPFH [56]).

Rusu et al.'s descriptor: for every point pair in a neighborhood, a
Darboux frame built from the source normal turns the pair's geometry
into three angles (alpha, phi, theta); histogramming each angle into 11
bins yields the 33-dimensional Simplified PFH (SPFH).  The final FPFH
of a point is its own SPFH plus the distance-weighted average of its
neighbors' SPFHs — the "fast" trick that reuses neighbor histograms
instead of re-pairing the whole neighborhood.

The ``radius`` parameter is the Descriptor Calculation search-radius
knob of the paper's Table 1, and makes this stage a heavy radius-search
(KD-tree) consumer.  The two batched passes (keypoints, then their
not-yet-covered neighbors) assume a stateless (exact) searcher — what
the pipeline always supplies for descriptor stages.
"""

from __future__ import annotations

import numpy as np

from repro.core.ragged import (
    RaggedNeighborhoods,
    check_take,
    gathered_weighted_segment_sums,
    segment_blocks,
)
from repro.io.pointcloud import PointCloud
from repro.registration.search import NeighborSearcher

__all__ = ["fpfh_descriptors", "FPFH_BINS", "FPFH_DIMS"]

FPFH_BINS = 11
FPFH_DIMS = 3 * FPFH_BINS  # 33

# Flat (center, neighbor) pairs per SPFH sweep chunk: small enough that
# the 20 reused per-pair rows stay allocation-free, large enough to
# amortize the per-chunk Python overhead.
_SPFH_BLOCK_PAIRS = 1 << 19


def fpfh_descriptors(
    cloud: PointCloud,
    searcher: NeighborSearcher,
    keypoint_indices: np.ndarray,
    radius: float = 1.0,
) -> np.ndarray:
    """Compute (len(keypoint_indices), 33) FPFH descriptors.

    Requires normals on ``cloud``.  SPFHs are computed lazily for
    keypoints and their neighbors only, then combined with the standard
    1/distance weighting.
    """
    if not cloud.has_normals:
        raise ValueError("FPFH requires normals; run estimate_normals first")
    if radius <= 0:
        raise ValueError("radius must be positive")
    keypoint_indices = np.asarray(keypoint_indices, dtype=np.int64)
    points = cloud.points
    normals = cloud.normals

    # Pass 1: one batched radius search over all keypoints, delivered
    # CSR-natively with the self-matches dropped.
    kp_ragged = searcher.radius_batch_csr(
        points[keypoint_indices], radius, self_indices=keypoint_indices
    )
    kp_ragged = kp_ragged.mask(
        kp_ragged.indices != keypoint_indices[kp_ragged.segment_ids]
    )

    # Pass 2: SPFH for every needed point (keypoints + their neighbors);
    # the neighbors not already covered get one more batched search.
    # ``needed`` and ``extra`` are sorted-unique set algebra over the
    # flat arrays (no Python set walk), preserving the ascending SPFH
    # evaluation order.
    needed = np.union1d(keypoint_indices, kp_ragged.indices)
    extra = np.setdiff1d(needed, keypoint_indices)
    extra_ragged = RaggedNeighborhoods.from_lists([], [])
    if len(extra):
        extra_ragged = searcher.radius_batch_csr(
            points[extra], radius, self_indices=extra
        )
        extra_ragged = extra_ragged.mask(
            extra_ragged.indices != extra[extra_ragged.segment_ids]
        )
    spfh, spfh_of = _spfh_batch(
        points, normals, needed, keypoint_indices, kp_ragged, extra, extra_ragged
    )

    # Pass 3: FPFH = own SPFH + weighted neighbor SPFHs.  The per-
    # keypoint weighted accumulation is a chunked strict-order gather +
    # segment sum over the flat (pair, 33) products — bit-identical to
    # a sequential per-neighbor accumulation loop.
    weights = 1.0 / np.maximum(kp_ragged.distances, 1e-6)
    weighted = gathered_weighted_segment_sums(
        spfh, spfh_of[kp_ragged.indices], weights, kp_ragged.offsets
    )
    descriptors = spfh[spfh_of[keypoint_indices]].copy()
    descriptors += weighted / np.maximum(kp_ragged.counts, 1)[:, None]
    totals = descriptors.sum(axis=1)
    positive = totals > 0
    # PCL normalizes to 100 (h / total * 100, in that order).
    descriptors[positive] = descriptors[positive] / totals[positive, None] * 100.0
    return descriptors


def _spfh_batch(
    points: np.ndarray,
    normals: np.ndarray,
    needed: np.ndarray,
    keypoint_indices: np.ndarray,
    kp_ragged: RaggedNeighborhoods,
    extra: np.ndarray,
    extra_ragged: RaggedNeighborhoods,
) -> tuple[np.ndarray, np.ndarray]:
    """SPFHs for all ``needed`` points in one flat pair sweep.

    Returns ``(spfh, spfh_of)``: the ``(len(needed), 33)`` histogram
    block in ``needed`` (ascending) order, plus a scatter table mapping
    a point index to its row (-1 elsewhere).
    """
    # Assemble the CSR of every needed point's (self-excluded) support
    # from the two search passes, in ``needed`` order: stack the two
    # CSRs and gather their rows through a point-index -> row table
    # (later rows win, like the seed's dict insertion order).
    combined = RaggedNeighborhoods(
        np.concatenate([kp_ragged.indices, extra_ragged.indices]),
        np.concatenate(
            [kp_ragged.offsets, kp_ragged.offsets[-1] + extra_ragged.offsets[1:]]
        ),
    )
    owners = np.concatenate([keypoint_indices, extra])
    row_of = np.full(int(owners.max()) + 1 if len(owners) else 1, -1, np.int64)
    row_of[owners] = np.arange(len(owners), dtype=np.int64)
    support = combined.select(row_of[needed])

    histograms = np.zeros((len(needed), FPFH_DIMS))
    if support.n_entries:
        _spfh_pair_sweep(points, normals, needed, support, histograms)

    spfh_of = np.full(
        int(needed[-1]) + 1 if len(needed) else 1, -1, dtype=np.int64
    )
    if len(needed):
        spfh_of[needed] = np.arange(len(needed), dtype=np.int64)
    return histograms, spfh_of


def _cross(a, b, out, t1, t2):
    """Cross product of coordinate-major ``(3, m)`` rows into ``out``.

    Component-wise ``a1*b2 - a2*b1`` etc. — the same multiplies and
    subtract as ``np.cross``, without its temporaries.
    """
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        np.multiply(a[i], b[j], out=t1)
        np.multiply(a[j], b[i], out=t2)
        np.subtract(t1, t2, out=out[k])


def _norm(a, out, t):
    """Row norms ``sqrt((a0² + a1²) + a2²)`` of ``(3, m)`` rows, the
    summation order of ``np.linalg.norm(x, axis=1)`` on ``(m, 3)``."""
    np.multiply(a[0], a[0], out=out)
    np.multiply(a[1], a[1], out=t)
    np.add(out, t, out=out)
    np.multiply(a[2], a[2], out=t)
    np.add(out, t, out=out)
    np.sqrt(out, out=out)


def _dot(a, b, out, t):
    """Dot products ``(a0b0 + a2b2) + a1b1`` of ``(3, m)`` rows, the
    lane order of ``np.einsum("ij,ij->i")`` on ``(m, 3)``."""
    np.multiply(a[0], b[0], out=out)
    np.multiply(a[2], b[2], out=t)
    np.add(out, t, out=out)
    np.multiply(a[1], b[1], out=t)
    np.add(out, t, out=out)


def _darboux_angles(points_t, normals_t, centers, neighbors, work):
    """The (alpha, phi, theta) angles of one block of (center, neighbor)
    pairs and the mask of pairs that define them.

    ``points_t``/``normals_t`` are ``(3, n)`` transposed copies and
    ``work`` a reused ``(20, capacity)`` buffer; the returned ``(3, m)``
    angle rows are a view into it.  A pair is good when its points are
    more than 1e-9 apart and ``d`` is not parallel to ``n_p``; the other
    pairs' angles are computed but never read.  An index outside the
    cloud raises ``IndexError``.
    """
    m = len(neighbors)
    check_take(centers, points_t.shape[1])
    check_take(neighbors, points_t.shape[1])
    d, u, v, w, n_q, angles = (work[3 * k : 3 * k + 3, :m] for k in range(6))
    scratch, scratch2 = work[18, :m], work[19, :m]
    for k in range(3):
        np.take(points_t[k], neighbors, out=d[k], mode="clip")
        np.take(points_t[k], centers, out=scratch, mode="clip")
        np.subtract(d[k], scratch, out=d[k])  # d = q - p
        np.take(normals_t[k], centers, out=u[k], mode="clip")  # u = n_p
        np.take(normals_t[k], neighbors, out=n_q[k], mode="clip")

    norm = angles[0]  # scratch until alpha is written
    _norm(d, norm, scratch)
    ok = norm > 1e-9
    np.maximum(norm, 1e-300, out=scratch)  # exact for every ok row
    np.divide(d, scratch, out=d)
    np.copyto(d, 0.0, where=~ok)

    _cross(d, u, v, scratch, scratch2)  # v = d x u
    _norm(v, norm, scratch)
    good = ok & (norm > 1e-9)
    np.maximum(norm, 1e-300, out=scratch)
    np.divide(v, scratch, out=v)
    np.copyto(v, 0.0, where=~good)
    _cross(u, v, w, scratch, scratch2)  # w = u x v

    # alpha = v . n_q, phi = u . d, theta = atan2(w . n_q, u . n_q)
    _dot(v, n_q, angles[0], scratch)
    _dot(u, d, angles[1], scratch)
    _dot(w, n_q, angles[2], scratch)
    _dot(u, n_q, scratch2, scratch)
    np.arctan2(angles[2], scratch2, out=angles[2])
    return angles, good


def _spfh_pair_sweep(
    points: np.ndarray,
    normals: np.ndarray,
    needed: np.ndarray,
    support: RaggedNeighborhoods,
    histograms: np.ndarray,
) -> None:
    """Accumulate all SPFH pair features into ``histograms``, chunked.

    Processes the flat (center, neighbor) pairs in segment-aligned
    blocks through reused coordinate-major buffers: the Darboux frame
    (u = n_p, v = d x u, w = u x v) and the three angles
    (:func:`_darboux_angles`), then one ``bincount`` per angle into the
    3 x 11-bin histograms.  Per-pair arithmetic replays the per-point
    formulation operation for operation (``np.linalg.norm``
    magnitudes, ``einsum`` dots, in their summation orders), so results
    are bit-identical; only allocation churn and strided access are
    removed.
    """
    segment_ids = support.segment_ids
    counts = support.counts
    capacity = int(
        min(support.n_entries, max(_SPFH_BLOCK_PAIRS, counts.max(initial=0)))
    )
    points_t = np.ascontiguousarray(points.T)
    normals_t = np.ascontiguousarray(normals.T)
    work = np.empty((20, capacity))
    flat_keys = np.empty(capacity, dtype=np.int64)
    bins = np.empty(capacity, dtype=np.int64)

    for seg_lo, seg_hi, lo, hi in segment_blocks(
        support.offsets, _SPFH_BLOCK_PAIRS
    ):
        m = hi - lo
        if m == 0:
            continue
        angles, good = _darboux_angles(
            points_t,
            normals_t,
            needed[segment_ids[lo:hi]],
            support.indices[lo:hi],
            work,
        )
        local_ids = segment_ids[lo:hi] - seg_lo
        block_rows = slice(seg_lo, seg_hi)
        n_rows = seg_hi - seg_lo
        for offset, feature, low, span in (
            (0, angles[0], -1.0, 2.0),
            (FPFH_BINS, angles[1], -1.0, 2.0),
            (2 * FPFH_BINS, angles[2], -np.pi, 2.0 * np.pi),
        ):
            # Replicates ``(feature - low) / span * FPFH_BINS`` exactly.
            np.subtract(feature, low, out=feature)
            np.divide(feature, span, out=feature)
            np.multiply(feature, FPFH_BINS, out=feature)
            np.floor(feature, out=feature)
            bin_view = bins[:m]
            np.clip(feature, 0, FPFH_BINS - 1, out=feature)
            bin_view[:] = feature
            keys = flat_keys[:m]
            np.multiply(local_ids, FPFH_BINS, out=keys)
            np.add(keys, bin_view, out=keys)
            histograms[block_rows, offset : offset + FPFH_BINS] += np.bincount(
                keys[good], minlength=n_rows * FPFH_BINS
            ).reshape(n_rows, FPFH_BINS)
