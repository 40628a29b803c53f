"""Per-stage parity: ragged kernels vs the seed loop implementations.

Every front-end stage was rewritten (PR 5) from a per-point Python
loop over batched neighbor lists to vectorized CSR segment kernels
(:mod:`repro.core.ragged`).  This module pins the seed loop
implementations as references and asserts the kernels reproduce them
element-for-element across all four search backends:

* descriptors (FPFH/SHOT/3DSC) and curvature: exact / tight-tolerance
  equality given the same input normals;
* keypoint index sets (Harris, SIFT) and voxel-downsample
  representative sets: exact equality;
* plane-SVD normals: exact up to the documented covariance tie rule —
  the kernels assemble neighborhood covariances from chunked raw
  moments instead of BLAS matmuls, and for neighborhoods with a
  (near-)degenerate eigenspace or a grazing viewpoint angle the
  last-ulp difference legitimately picks a different eigenbasis/sign.
  Such rows must be rare (< 1 %); all others must agree to 1e-6.

Each comparison uses a fresh searcher per run so the stateful
approximate backend sees an identical query sequence on both paths.
"""

import numpy as np
import pytest

from repro.io import default_test_model, make_sequence
from repro.io.pointcloud import PointCloud
from repro.registration import (
    NormalEstimationConfig,
    SearchConfig,
    build_searcher,
    estimate_normals,
)
from repro.registration.descriptors.fpfh import FPFH_BINS, FPFH_DIMS, fpfh_descriptors
from repro.registration.descriptors.sc3d import sc3d_descriptors
from repro.registration.descriptors.shot import SHOT_DIMS, shot_descriptors, shot_lrf
from repro.registration.keypoints.harris import harris_keypoints
from repro.registration.keypoints.sift import sift_keypoints
from repro.registration.search import BACKENDS

NORMAL_RADIUS = 0.8
DESCRIPTOR_RADIUS = 1.0


@pytest.fixture(scope="module")
def cloud():
    sequence = make_sequence(
        n_frames=1, seed=7, model=default_test_model(azimuth_steps=140, channels=14)
    )
    return sequence.frames[0]


@pytest.fixture(scope="module")
def normal_cloud(cloud):
    """Cloud with kernel-path normals: the shared input for downstream
    stage comparisons (isolates each stage's own arithmetic)."""
    searcher = build_searcher(cloud.points, SearchConfig(backend="twostage"))
    return estimate_normals(
        cloud, searcher, NormalEstimationConfig(radius=NORMAL_RADIUS)
    )


@pytest.fixture(scope="module")
def keypoints(normal_cloud):
    searcher = build_searcher(normal_cloud.points, SearchConfig(backend="twostage"))
    indices = harris_keypoints(normal_cloud, searcher, radius=1.2)
    assert len(indices) >= 10, "parity needs a non-trivial keypoint set"
    return indices


def fresh(points, backend):
    return build_searcher(points, SearchConfig(backend=backend))


# ----------------------------------------------------------------------
# Seed (pre-PR 5) loop implementations, pinned as references.
# ----------------------------------------------------------------------


def ref_plane_svd_normal(neighborhood):
    centered = neighborhood - neighborhood.mean(axis=0)
    covariance = centered.T @ centered / len(neighborhood)
    eigenvalues, eigenvectors = np.linalg.eigh(covariance)
    normal = eigenvectors[:, 0]
    total = float(eigenvalues.sum())
    curvature = float(eigenvalues[0]) / total if total > 1e-12 else 0.0
    norm = np.linalg.norm(normal)
    return (normal / norm if norm > 0 else np.array([0.0, 0.0, 1.0])), curvature


def ref_area_weighted_normal(point, neighborhood):
    rough_normal, curvature = ref_plane_svd_normal(neighborhood)
    offsets = neighborhood - point
    basis_u = np.cross(rough_normal, [1.0, 0.0, 0.0])
    if np.linalg.norm(basis_u) < 1e-8:
        basis_u = np.cross(rough_normal, [0.0, 1.0, 0.0])
    basis_u /= np.linalg.norm(basis_u)
    basis_v = np.cross(rough_normal, basis_u)
    angles = np.arctan2(offsets @ basis_v, offsets @ basis_u)
    ring = offsets[np.argsort(angles, kind="stable")]
    crosses = np.cross(ring, np.roll(ring, -1, axis=0))
    total = crosses.sum(axis=0)
    norm = np.linalg.norm(total)
    if norm < 1e-12:
        return rough_normal, curvature
    normal = total / norm
    if normal @ rough_normal < 0:
        normal = -normal
    return normal, curvature


def ref_estimate_normals(cloud, searcher, config):
    points = cloud.points
    n = len(points)
    normals = np.zeros((n, 3))
    curvature = np.zeros(n)
    viewpoint = np.asarray(config.orient_towards, dtype=np.float64)
    all_neighbors, _ = searcher.radius_batch(points, config.radius)
    for i in range(n):
        neighbor_idx = all_neighbors[i]
        if len(neighbor_idx) < config.min_neighbors:
            normals[i] = (0.0, 0.0, 1.0)
            continue
        neighborhood = points[neighbor_idx]
        if config.method == "plane_svd":
            normal, curv = ref_plane_svd_normal(neighborhood)
        else:
            normal, curv = ref_area_weighted_normal(points[i], neighborhood)
        if normal @ (viewpoint - points[i]) < 0:
            normal = -normal
        normals[i] = normal
        curvature[i] = curv
    return normals, curvature


def ref_harris_scores_and_keypoints(cloud, searcher, radius, k=0.04,
                                    threshold=1e-4, response="eigen_product"):
    points = cloud.points
    normals = cloud.normals
    n = len(points)
    scores = np.full(n, -np.inf)
    all_neighbors, _ = searcher.radius_batch(points, radius)
    for i in range(n):
        neighbor_idx = all_neighbors[i]
        if len(neighbor_idx) < 5:
            continue
        nbr_normals = normals[neighbor_idx]
        centered = nbr_normals - nbr_normals.mean(axis=0)
        tensor = centered.T @ centered / len(neighbor_idx)
        if response == "harris":
            scores[i] = np.linalg.det(tensor) - k * np.trace(tensor) ** 2
        else:
            eigenvalues = np.linalg.eigvalsh(tensor)
            scores[i] = eigenvalues[0] * eigenvalues[1]
    return scores


def ref_sift_keypoints(cloud, searcher, min_scale=0.5, n_octaves=3,
                       scales_per_octave=2, contrast_threshold=1e-4):
    points = cloud.points
    signal = np.asarray(cloud.get_attribute("curvature"), dtype=np.float64)
    n = len(points)
    scales = sorted({
        min_scale * (2.0 ** octave) * (2.0 ** (s / scales_per_octave))
        for octave in range(n_octaves)
        for s in range(scales_per_octave + 1)
    })
    smoothed = np.empty((len(scales), n))
    cache_idx, cache_dist = searcher.radius_batch(points, 2.0 * scales[-1])
    for s, sigma in enumerate(scales):
        support = 2.0 * sigma
        for i in range(n):
            idx, dist = cache_idx[i], cache_dist[i]
            mask = dist <= support
            if not np.any(mask):
                smoothed[s, i] = signal[i]
                continue
            weights = np.exp(-0.5 * (dist[mask] / sigma) ** 2)
            smoothed[s, i] = float(np.sum(weights * signal[idx[mask]]) / np.sum(weights))
    dog = np.diff(smoothed, axis=0)
    keypoints = []
    for s in range(1, len(dog) - 1) if len(dog) > 2 else range(len(dog)):
        lower = dog[s - 1] if s - 1 >= 0 else None
        upper = dog[s + 1] if s + 1 < len(dog) else None
        sigma = scales[s]
        for i in range(n):
            value = dog[s, i]
            if abs(value) < contrast_threshold:
                continue
            idx, dist = cache_idx[i], cache_dist[i]
            mask = (dist <= sigma) & (idx != i)
            spatial = dog[s, idx[mask]]
            if len(spatial) == 0:
                continue
            is_max = value > spatial.max()
            is_min = value < spatial.min()
            if not (is_max or is_min):
                continue
            rejected = False
            for band in (lower, upper):
                if band is None:
                    continue
                neighborhood = np.append(band[idx[mask]], band[i])
                if is_max and value <= neighborhood.max():
                    rejected = True
                if is_min and value >= neighborhood.min():
                    rejected = True
            if not rejected:
                keypoints.append(i)
    return np.array(sorted(set(keypoints)), dtype=np.int64)


def ref_spfh(points, normals, idx, neighbor_idx):
    histogram = np.zeros(FPFH_DIMS)
    if len(neighbor_idx) == 0:
        return histogram
    p, n_p = points[idx], normals[idx]
    q, n_q = points[neighbor_idx], normals[neighbor_idx]
    d = q - p
    dist = np.linalg.norm(d, axis=1)
    ok = dist > 1e-9
    if not np.any(ok):
        return histogram
    d = d[ok] / dist[ok, None]
    n_q = n_q[ok]
    u = np.broadcast_to(n_p, d.shape)
    v = np.cross(d, u)
    v_norm = np.linalg.norm(v, axis=1, keepdims=True)
    good = v_norm[:, 0] > 1e-9
    if not np.any(good):
        return histogram
    v = v[good] / v_norm[good]
    u, d, n_q = u[good], d[good], n_q[good]
    w = np.cross(u, v)
    alpha = np.einsum("ij,ij->i", v, n_q)
    phi = np.einsum("ij,ij->i", u, d)
    theta = np.arctan2(np.einsum("ij,ij->i", w, n_q), np.einsum("ij,ij->i", u, n_q))
    for feature, lo, hi, offset in (
        (alpha, -1.0, 1.0, 0),
        (phi, -1.0, 1.0, FPFH_BINS),
        (theta, -np.pi, np.pi, 2 * FPFH_BINS),
    ):
        bins = np.clip(
            ((feature - lo) / (hi - lo) * FPFH_BINS).astype(np.int64),
            0, FPFH_BINS - 1,
        )
        histogram[offset: offset + FPFH_BINS] += np.bincount(bins, minlength=FPFH_BINS)
    return histogram


def ref_fpfh_descriptors(cloud, searcher, keypoint_indices, radius):
    keypoint_indices = np.asarray(keypoint_indices, dtype=np.int64)
    points, normals = cloud.points, cloud.normals
    neighbor_lists = {}
    kp_neighbors, kp_dists = searcher.radius_batch(points[keypoint_indices], radius)
    for idx, nbr_idx, nbr_dist in zip(keypoint_indices, kp_neighbors, kp_dists):
        mask = nbr_idx != idx
        neighbor_lists[int(idx)] = (nbr_idx[mask], nbr_dist[mask])
    needed = np.unique(np.concatenate(
        [keypoint_indices] + [nbr for nbr, _ in neighbor_lists.values()]
    ))
    extra = np.array(
        [int(i) for i in needed if int(i) not in neighbor_lists], dtype=np.int64
    )
    if len(extra):
        extra_neighbors, extra_dists = searcher.radius_batch(points[extra], radius)
        for idx, nbr_idx, nbr_dist in zip(extra, extra_neighbors, extra_dists):
            mask = nbr_idx != idx
            neighbor_lists[int(idx)] = (nbr_idx[mask], nbr_dist[mask])
    spfh = {int(i): ref_spfh(points, normals, int(i), neighbor_lists[int(i)][0])
            for i in needed}
    descriptors = np.zeros((len(keypoint_indices), FPFH_DIMS))
    for row, idx in enumerate(keypoint_indices):
        nbr_idx, nbr_dist = neighbor_lists[int(idx)]
        histogram = spfh[int(idx)].copy()
        if len(nbr_idx):
            weights = 1.0 / np.maximum(nbr_dist, 1e-6)
            weighted = np.zeros(FPFH_DIMS)
            for j, w in zip(nbr_idx, weights):
                weighted += w * spfh[int(j)]
            histogram += weighted / len(nbr_idx)
        total = histogram.sum()
        if total > 0:
            histogram = histogram / total * 100.0
        descriptors[row] = histogram
    return descriptors


def ref_shot_descriptors(cloud, searcher, keypoint_indices, radius):
    from repro.registration.descriptors.shot import (
        _AZIMUTH_SECTORS, _COSINE_BINS, _ELEVATION_SECTORS, _RADIAL_SECTORS,
    )
    keypoint_indices = np.asarray(keypoint_indices, dtype=np.int64)
    points, normals = cloud.points, cloud.normals
    descriptors = np.zeros((len(keypoint_indices), SHOT_DIMS))
    all_neighbors, all_dists = searcher.radius_batch(points[keypoint_indices], radius)
    for row, idx in enumerate(keypoint_indices):
        center = points[idx]
        mask = all_neighbors[row] != idx
        nbr_idx, nbr_dist = all_neighbors[row][mask], all_dists[row][mask]
        if len(nbr_idx) < 5:
            continue
        neighborhood = points[nbr_idx]
        frame = shot_lrf(center, neighborhood, radius)
        local = (neighborhood - center) @ frame.T
        azimuth = np.arctan2(local[:, 1], local[:, 0])
        az_bin = np.clip(
            ((azimuth + np.pi) / (2 * np.pi) * _AZIMUTH_SECTORS).astype(int),
            0, _AZIMUTH_SECTORS - 1,
        )
        el_bin = (local[:, 2] >= 0).astype(int)
        rad_bin = (nbr_dist >= radius / 2.0).astype(int)
        cosine = np.clip(normals[nbr_idx] @ frame[2], -1.0, 1.0)
        cos_bin = np.clip(
            ((cosine + 1.0) / 2.0 * _COSINE_BINS).astype(int), 0, _COSINE_BINS - 1
        )
        volume = (az_bin * _ELEVATION_SECTORS + el_bin) * _RADIAL_SECTORS + rad_bin
        histogram = np.bincount(
            volume * _COSINE_BINS + cos_bin, minlength=SHOT_DIMS
        ).astype(np.float64)
        norm = np.linalg.norm(histogram)
        if norm > 0:
            histogram /= norm
        descriptors[row] = histogram
    return descriptors


def ref_sc3d_descriptors(cloud, searcher, keypoint_indices, radius, min_radius=0.05):
    from repro.registration.descriptors.sc3d import (
        _AZIMUTH_BINS, _ELEVATION_BINS, _RADIAL_BINS, SC3D_DIMS,
    )
    keypoint_indices = np.asarray(keypoint_indices, dtype=np.int64)
    points, normals = cloud.points, cloud.normals
    descriptors = np.zeros((len(keypoint_indices), SC3D_DIMS))
    shell_edges = np.exp(
        np.linspace(np.log(min_radius), np.log(radius), _RADIAL_BINS + 1)
    )
    all_neighbors, all_dists = searcher.radius_batch(points[keypoint_indices], radius)
    masked = []
    for row, idx in enumerate(keypoint_indices):
        nbr_idx, nbr_dist = all_neighbors[row], all_dists[row]
        mask = (nbr_idx != idx) & (nbr_dist >= min_radius)
        masked.append((nbr_idx[mask], nbr_dist[mask]))
    contributing = [nbr for nbr, _ in masked if len(nbr) >= 5]
    unique_neighbors = (
        np.unique(np.concatenate(contributing))
        if contributing else np.empty(0, dtype=np.int64)
    )
    density_of = {}
    if len(unique_neighbors):
        close_lists, _ = searcher.radius_batch(
            points[unique_neighbors], min_radius * 2
        )
        density_of = {
            int(nbr): float(max(len(close), 1))
            for nbr, close in zip(unique_neighbors, close_lists)
        }
    for row, idx in enumerate(keypoint_indices):
        center, normal = points[idx], normals[idx]
        nbr_idx, nbr_dist = masked[row]
        if len(nbr_idx) < 5:
            continue
        neighborhood = points[nbr_idx]
        frame = shot_lrf(center, neighborhood, radius)
        z_axis = normal / max(np.linalg.norm(normal), 1e-12)
        x_seed = frame[0] - (frame[0] @ z_axis) * z_axis
        if np.linalg.norm(x_seed) < 1e-9:
            x_seed = np.array([1.0, 0.0, 0.0])
            x_seed -= (x_seed @ z_axis) * z_axis
            if np.linalg.norm(x_seed) < 1e-9:
                x_seed = np.array([0.0, 1.0, 0.0])
                x_seed -= (x_seed @ z_axis) * z_axis
        x_axis = x_seed / np.linalg.norm(x_seed)
        y_axis = np.cross(z_axis, x_axis)
        local = (neighborhood - center) @ np.vstack([x_axis, y_axis, z_axis]).T
        azimuth = np.arctan2(local[:, 1], local[:, 0])
        az_bin = np.clip(
            ((azimuth + np.pi) / (2 * np.pi) * _AZIMUTH_BINS).astype(int),
            0, _AZIMUTH_BINS - 1,
        )
        elevation = np.arccos(
            np.clip(local[:, 2] / np.maximum(nbr_dist, 1e-12), -1.0, 1.0)
        )
        el_bin = np.clip(
            (elevation / np.pi * _ELEVATION_BINS).astype(int), 0, _ELEVATION_BINS - 1
        )
        rad_bin = np.clip(
            np.searchsorted(shell_edges, nbr_dist, side="right") - 1,
            0, _RADIAL_BINS - 1,
        )
        weights = 1.0 / np.cbrt(
            np.array([density_of[int(nbr)] for nbr in nbr_idx])
        )
        flat = (az_bin * _ELEVATION_BINS + el_bin) * _RADIAL_BINS + rad_bin
        histogram = np.bincount(flat, weights=weights, minlength=SC3D_DIMS)
        norm = np.linalg.norm(histogram)
        if norm > 0:
            histogram /= norm
        descriptors[row] = histogram
    return descriptors


def ref_voxel_downsample_indices(points, voxel_size):
    keys = np.floor(points / voxel_size).astype(np.int64)
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    sorted_keys = keys[order]
    boundaries = np.any(np.diff(sorted_keys, axis=0) != 0, axis=1)
    group_starts = np.concatenate(([0], np.nonzero(boundaries)[0] + 1))
    group_ends = np.concatenate((group_starts[1:], [len(order)]))
    representatives = np.empty(len(group_starts), dtype=np.int64)
    for g, (start, end) in enumerate(zip(group_starts, group_ends)):
        members = order[start:end]
        centroid = points[members].mean(axis=0)
        offsets = points[members] - centroid
        representatives[g] = members[int(np.argmin(np.sum(offsets * offsets, axis=1)))]
    return np.sort(representatives)


# ----------------------------------------------------------------------
# The parity assertions.
# ----------------------------------------------------------------------


def assert_descriptors_match(name, actual, expected, exact=False):
    """Element-for-element up to the documented LRF tie rule.

    SHOT/3DSC frames come from the same covariance tie rule as the
    normals: a (near-)degenerate local reference frame can resolve its
    eigenbasis differently between the BLAS and segment-moment
    assemblies, rotating that keypoint's whole histogram.  Such rows
    must be rare (< 1 %); every other row must agree to 1e-9 (FPFH:
    bit-identical, no LRF involved).
    """
    if exact:
        assert np.array_equal(actual, expected), f"{name}: descriptors diverged"
        return
    row_difference = np.abs(actual - expected).max(axis=1)
    mismatched = int((row_difference > 1e-9).sum())
    limit = max(1, len(actual) // 100)
    assert mismatched <= limit, (
        f"{name}: {mismatched} of {len(actual)} rows beyond the "
        "degenerate-LRF tie rule"
    )
    agreeing = row_difference <= 1e-9
    np.testing.assert_allclose(
        actual[agreeing], expected[agreeing], atol=1e-9,
        err_msg=f"{name} descriptors drifted",
    )


def assert_normals_match(actual_cloud, ref_normals, ref_curvature, n_points):
    """Element-for-element up to the documented covariance tie rule."""
    np.testing.assert_allclose(
        actual_cloud.get_attribute("curvature"), ref_curvature, atol=1e-12
    )
    difference = np.linalg.norm(actual_cloud.normals - ref_normals, axis=1)
    flipped = np.linalg.norm(actual_cloud.normals + ref_normals, axis=1)
    mismatched = np.minimum(difference, flipped) > 1e-6
    assert mismatched.sum() <= max(1, n_points // 100), (
        f"{mismatched.sum()} of {n_points} normals diverge beyond the "
        "degenerate-eigenbasis tie rule"
    )
    agreeing = difference <= 1e-6
    np.testing.assert_allclose(
        actual_cloud.normals[agreeing], ref_normals[agreeing], atol=1e-6
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method", ["plane_svd", "area_weighted"])
def test_normals_parity(cloud, backend, method):
    config = NormalEstimationConfig(
        method=method, radius=NORMAL_RADIUS, orient_towards=(0.0, 0.0, 2.0)
    )
    actual = estimate_normals(cloud, fresh(cloud.points, backend), config)
    ref_normals, ref_curvature = ref_estimate_normals(
        cloud, fresh(cloud.points, backend), config
    )
    assert_normals_match(actual, ref_normals, ref_curvature, len(cloud))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("response", ["eigen_product", "harris"])
def test_harris_parity(normal_cloud, backend, response):
    points = normal_cloud.points
    actual = harris_keypoints(
        normal_cloud, fresh(points, backend), radius=1.2, response=response
    )
    scores = ref_harris_scores_and_keypoints(
        normal_cloud, fresh(points, backend), radius=1.2, response=response
    )
    # Replay the seed's candidate selection against the reference
    # scores, then the (unchanged) NMS routine.
    from repro.registration.keypoints.harris import _non_max_suppress
    candidates = np.nonzero(scores > 1e-4)[0]
    expected = (
        _non_max_suppress(points, scores, candidates, 1.2)
        if len(candidates) else candidates.astype(np.int64)
    )
    assert np.array_equal(actual, expected)


@pytest.mark.parametrize("backend", BACKENDS)
def test_sift_parity(normal_cloud, backend):
    points = normal_cloud.points
    actual = sift_keypoints(normal_cloud, fresh(points, backend))
    expected = ref_sift_keypoints(normal_cloud, fresh(points, backend))
    assert np.array_equal(actual, expected)


@pytest.mark.parametrize("backend", BACKENDS)
def test_fpfh_parity_exact(normal_cloud, keypoints, backend):
    """FPFH replays the seed arithmetic element-for-element: SPFH bins
    are integer counts and the weighted accumulation runs in the same
    order, so the result is bit-identical."""
    points = normal_cloud.points
    actual = fpfh_descriptors(
        normal_cloud, fresh(points, backend), keypoints, radius=DESCRIPTOR_RADIUS
    )
    expected = ref_fpfh_descriptors(
        normal_cloud, fresh(points, backend), keypoints, radius=DESCRIPTOR_RADIUS
    )
    assert np.array_equal(actual, expected)


@pytest.mark.parametrize("backend", BACKENDS)
def test_shot_parity(normal_cloud, keypoints, backend):
    points = normal_cloud.points
    actual = shot_descriptors(
        normal_cloud, fresh(points, backend), keypoints, radius=DESCRIPTOR_RADIUS
    )
    expected = ref_shot_descriptors(
        normal_cloud, fresh(points, backend), keypoints, radius=DESCRIPTOR_RADIUS
    )
    assert_descriptors_match("shot", actual, expected)


@pytest.mark.parametrize("backend", BACKENDS)
def test_sc3d_parity(normal_cloud, keypoints, backend):
    points = normal_cloud.points
    actual = sc3d_descriptors(
        normal_cloud, fresh(points, backend), keypoints, radius=DESCRIPTOR_RADIUS
    )
    expected = ref_sc3d_descriptors(
        normal_cloud, fresh(points, backend), keypoints, radius=DESCRIPTOR_RADIUS
    )
    assert_descriptors_match("sc3d", actual, expected)


@pytest.mark.parametrize("voxel_size", [0.4, 1.0, 3.0])
def test_voxel_downsample_parity(cloud, voxel_size):
    actual = cloud.voxel_downsample(voxel_size)
    expected = ref_voxel_downsample_indices(cloud.points, voxel_size)
    assert np.array_equal(actual.points, cloud.points[expected])


def test_voxel_downsample_attributes_survive(rng):
    cloud = PointCloud(
        rng.uniform(0, 5, size=(200, 3)), ring=np.arange(200, dtype=np.int64)
    )
    down = cloud.voxel_downsample(1.0)
    original_rows = {tuple(p) for p in cloud.points.round(12).tolist()}
    assert all(tuple(p) in original_rows for p in down.points.round(12).tolist())
    assert down.has_attribute("ring")
    assert len(down.get_attribute("ring")) == len(down)
