"""Coordinate-major feature kernels against the row-major code they replaced.

The NE/Harris covariance kernel, FPFH's Darboux-frame pair sweep and
Harris's eigen-product scoring were rewritten on coordinate-major
``(3, m)`` buffers, keeping every summation order, and Harris now runs
``eigh`` only where a response can pass its threshold.  The row-major
kernels live on here as oracles, and every comparison is bit for bit
(``array_equal``): on the inputs a real LiDAR front end hands them (two
frames of the ``SceneSuite.default`` urban scene through NE r=0.75,
Harris r=1.0 and FPFH r=1.5) and on adversarial ones.  Harris's NMS is
checked against its loop in ``test_keypoints.py``.
"""

import numpy as np
import pytest

from repro.core.ragged import (
    RaggedNeighborhoods,
    batched_eigh,
    gathered_moment_covariances,
    segment_blocks,
    segment_sum,
)
from repro.io import SceneSuite
from repro.registration import (
    DescriptorConfig,
    KeypointConfig,
    NormalEstimationConfig,
    Pipeline,
    PipelineConfig,
)
from repro.registration import normals as normals_module
from repro.registration.descriptors import fpfh as fpfh_module
from repro.registration.descriptors.fpfh import FPFH_BINS, FPFH_DIMS
from repro.registration.keypoints import harris as harris_module


# -- the row-major kernels ----------------------------------------------------


def ref_gathered_moment_covariances(
    source, indices, offsets, center_source=None, center_ids=None, block_pairs=1 << 20
):
    """Row-major ``(m, D)`` gathers, reduced through strided columns."""
    source = np.asarray(source, dtype=np.float64)
    dims = source.shape[1]
    n_segments = len(offsets) - 1
    counts = np.diff(offsets)
    denominators = np.maximum(counts, 1).astype(np.float64)
    covariances = np.empty((n_segments, dims, dims))
    means = np.empty((n_segments, dims))
    if n_segments == 0:
        return covariances, means
    capacity = int(min(offsets[-1], max(block_pairs, counts.max(initial=0))))
    gathered = np.empty((max(capacity, 1), dims))
    centers = np.empty_like(gathered) if center_source is not None else None
    products = np.empty(max(capacity, 1))
    for seg_lo, seg_hi, lo, hi in segment_blocks(offsets, block_pairs):
        m = hi - lo
        block_offsets = offsets[seg_lo : seg_hi + 1] - lo
        block_denoms = denominators[seg_lo:seg_hi]
        block = gathered[:m]
        np.take(source, indices[lo:hi], axis=0, out=block)
        if center_source is not None:
            np.take(center_source, center_ids[lo:hi], axis=0, out=centers[:m])
            np.subtract(block, centers[:m], out=block)
        block_means = means[seg_lo:seg_hi]
        for a in range(dims):
            block_means[:, a] = segment_sum(block[:, a], block_offsets) / block_denoms
        for a in range(dims):
            for b in range(a, dims):
                np.multiply(block[:, a], block[:, b], out=products[:m])
                second = segment_sum(products[:m], block_offsets) / block_denoms
                component = second - block_means[:, a] * block_means[:, b]
                covariances[seg_lo:seg_hi, a, b] = component
                covariances[seg_lo:seg_hi, b, a] = component
    return covariances, means


def ref_darboux_angles(points, normals, centers, neighbors):
    """Row-major angles: ``np.linalg.norm`` magnitudes, ``einsum`` dots,
    ``np.cross`` frames.  Returns ``(alpha, phi, theta, good)``."""
    d = points[neighbors] - points[centers]
    u = normals[centers]
    n_q = normals[neighbors]
    dist = np.linalg.norm(d, axis=1)
    ok = dist > 1e-9
    d = d / np.maximum(dist, 1e-300)[:, None]
    d[~ok] = 0.0
    v = np.cross(d, u)
    v_norm = np.linalg.norm(v, axis=1)
    good = ok & (v_norm > 1e-9)
    v = v / np.maximum(v_norm, 1e-300)[:, None]
    v[~good] = 0.0
    w = np.cross(u, v)
    alpha = np.einsum("ij,ij->i", v, n_q)
    phi = np.einsum("ij,ij->i", u, d)
    theta = np.arctan2(np.einsum("ij,ij->i", w, n_q), np.einsum("ij,ij->i", u, n_q))
    return alpha, phi, theta, good


def ref_spfh_histograms(points, normals, needed, support):
    """The angles binned as ``(feature - low) / span * bins``, floored
    and clipped, counted over good pairs."""
    centers = needed[support.segment_ids]
    *angles, good = ref_darboux_angles(points, normals, centers, support.indices)
    histograms = np.zeros((len(needed), FPFH_DIMS))
    for k, (feature, low, span) in enumerate(
        zip(angles, (-1.0, -1.0, -np.pi), (2.0, 2.0, 2.0 * np.pi))
    ):
        bins = np.clip(np.floor((feature - low) / span * FPFH_BINS), 0, FPFH_BINS - 1)
        keys = support.segment_ids[good] * FPFH_BINS + bins[good].astype(np.int64)
        histograms[:, k * FPFH_BINS : (k + 1) * FPFH_BINS] += np.bincount(
            keys, minlength=len(needed) * FPFH_BINS
        ).reshape(len(needed), FPFH_BINS)
    return histograms


def ref_eigen_product_scores(tensors, valid):
    """Full stacked ``eigh`` of every row, invalid rows at ``-inf``."""
    eigenvalues, _ = batched_eigh(tensors, valid)
    return np.where(valid, eigenvalues[:, 0] * eigenvalues[:, 1], -np.inf)


# -- real LiDAR inputs ----------------------------------------------------------


@pytest.fixture(scope="module")
def urban_calls():
    """The kernel calls two urban frames make through the front end."""
    calls = {"covariances": [], "sweep": [], "scores": []}

    def recorder(module, name, key):
        original = getattr(module, name)

        def record(*args, **kwargs):
            calls[key].append((args, kwargs))
            return original(*args, **kwargs)

        return record

    pipeline = Pipeline(
        PipelineConfig(
            normals=NormalEstimationConfig(radius=0.75),
            keypoints=KeypointConfig(method="harris", params={"radius": 1.0}),
            descriptor=DescriptorConfig(method="fpfh", radius=1.5),
        )
    )
    frames = SceneSuite.default(n_frames=2, scenes=("urban",)).sequence("urban").frames
    with pytest.MonkeyPatch.context() as patch:
        for module, name, key in (
            (normals_module, "gathered_moment_covariances", "covariances"),
            (harris_module, "gathered_moment_covariances", "covariances"),
            (fpfh_module, "_spfh_pair_sweep", "sweep"),
            (harris_module, "_eigen_product_scores", "scores"),
        ):
            patch.setattr(module, name, recorder(module, name, key))
        for frame in frames:
            pipeline.preprocess(frame)
    assert [len(calls[key]) for key in calls] == [4, 2, 2]
    return calls


def assert_covariances_match(*args, **kwargs):
    covariances, means = gathered_moment_covariances(*args, **kwargs)
    ref_covariances, ref_means = ref_gathered_moment_covariances(*args, **kwargs)
    assert np.array_equal(covariances, ref_covariances)
    assert np.array_equal(means, ref_means)


def assert_sweep_matches(points, normals, needed, support):
    histograms = np.zeros((len(needed), FPFH_DIMS))
    if support.n_entries:
        fpfh_module._spfh_pair_sweep(points, normals, needed, support, histograms)
    assert np.array_equal(
        histograms, ref_spfh_histograms(points, normals, needed, support)
    )


def assert_angles_match(points, normals, centers, neighbors):
    work = np.empty((20, max(len(neighbors), 1)))
    angles, good = fpfh_module._darboux_angles(
        np.ascontiguousarray(points.T),
        np.ascontiguousarray(normals.T),
        centers,
        neighbors,
        work,
    )
    *ref_angles, ref_good = ref_darboux_angles(points, normals, centers, neighbors)
    assert np.array_equal(good, ref_good)
    for got, want in zip(angles, ref_angles):
        assert np.array_equal(got[good], want[good])
    return good


def assert_scores_match(tensors, valid, threshold):
    scores = harris_module._eigen_product_scores(tensors, valid, threshold)
    ref_scores = ref_eigen_product_scores(tensors, valid)
    candidates = np.flatnonzero(ref_scores > threshold)
    assert np.array_equal(np.flatnonzero(scores > threshold), candidates)
    assert np.array_equal(scores[candidates], ref_scores[candidates])
    return scores


# -- covariances (NE and the Harris tensors) ------------------------------------


class TestCovariances:
    def test_urban_frames(self, urban_calls):
        for args, kwargs in urban_calls["covariances"]:
            assert_covariances_match(*args, **kwargs)

    @pytest.mark.parametrize("block_pairs", [1, 4, 7, 1 << 20])
    def test_empty_single_and_chunked_segments(self, rng, block_pairs):
        points = rng.normal(size=(60, 3)) * 10 ** rng.uniform(-2, 2, (60, 3)) + 3.0
        counts = rng.choice([0, 0, 1, 1, 2, 5, 9, 30], size=45)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        indices = rng.integers(0, 60, size=offsets[-1])
        ragged = RaggedNeighborhoods(indices, offsets)
        for centered in (False, True):
            kwargs = {"block_pairs": block_pairs}
            if centered:
                kwargs.update(center_source=points, center_ids=ragged.segment_ids)
            assert_covariances_match(points, indices, offsets, **kwargs)

    def test_long_segment(self, rng):
        """One segment past numpy's 8192-element reduction buffer."""
        points = rng.normal(size=(500, 3)) * 10 ** rng.uniform(-3, 3, (500, 3))
        indices = rng.integers(0, 500, size=20000)
        assert_covariances_match(points, indices, np.array([0, 3, 20000]))


# -- FPFH's pair sweep ----------------------------------------------------------


def adversarial_pairs(rng):
    """Points, normals and a ragged support with coincident points
    (``dist <= 1e-9``), pairs with ``d`` parallel to ``n_p``, empty and
    one-entry segments, at mixed magnitudes."""
    n = 80
    points = rng.normal(size=(n, 3)) * 10 ** rng.uniform(-1, 1, (n, 3))
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    points[1] = points[0]  # coincident
    points[3] = points[2] + 1e-10  # closer than 1e-9
    points[5] = points[4] + 0.5 * normals[4]  # d parallel to n_p
    points[7] = points[6] - 2.0 * normals[6]  # d anti-parallel to n_p
    lists = [[1], [], [3], [], [5, 0], [], [7], [6, 1, 2]]
    for _ in range(n - len(lists)):
        lists.append(rng.integers(0, n, size=int(rng.choice([0, 1, 3, 12]))))
    support = RaggedNeighborhoods.from_lists(lists)
    return points, normals, support


class TestPairSweep:
    def test_urban_frames(self, urban_calls):
        for args, _ in urban_calls["sweep"]:
            points, normals, needed, support, _ = args
            assert_sweep_matches(points, normals, needed, support)
            good = assert_angles_match(
                points, normals, needed[support.segment_ids], support.indices
            )
            assert good.mean() > 0.9

    def test_adversarial_pairs(self, rng):
        points, normals, support = adversarial_pairs(rng)
        needed = np.arange(len(points))
        good = assert_angles_match(
            points, normals, needed[support.segment_ids], support.indices
        )
        # Flat pairs 0, 1, 2 and 4: coincident, too close, parallel and
        # anti-parallel, none of which defines a frame.
        assert not good[[0, 1, 2, 4]].any()
        assert_sweep_matches(points, normals, needed, support)

    @pytest.mark.parametrize("block_pairs", [1, 5, 16])
    def test_chunk_boundaries(self, rng, monkeypatch, block_pairs):
        monkeypatch.setattr(fpfh_module, "_SPFH_BLOCK_PAIRS", block_pairs)
        points, normals, support = adversarial_pairs(rng)
        needed = np.arange(len(points))
        assert_sweep_matches(points, normals, needed, support)

    def test_subset_of_needed_points(self, rng):
        points, normals, support = adversarial_pairs(rng)
        needed = np.sort(rng.choice(len(points), size=support.n_segments, replace=False))
        assert_sweep_matches(points, normals, needed, support)


# -- Harris's eigen-product scores ----------------------------------------------


def random_tensors(rng, n, eigenvalues):
    """Symmetric tensors ``Q diag(eigenvalues) Q^T`` with random rotations."""
    q, _ = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    return np.einsum("nij,nj,nkj->nik", q, eigenvalues, q)


class TestEigenProductScores:
    def test_urban_frames(self, urban_calls):
        skipped = 0
        for (tensors, valid, threshold), _ in urban_calls["scores"]:
            scores = assert_scores_match(tensors, valid, threshold)
            skipped += np.count_nonzero(valid & (scores == -np.inf))
            for other in (0.0, 1e-6, 1e-3):
                assert_scores_match(tensors, valid, other)
        assert skipped > 0

    @pytest.mark.parametrize("threshold", [1e-4, 0.0, -1.0, np.nan, 1e-40, np.inf])
    def test_tensors_on_both_sides_of_the_bound(self, rng, threshold):
        n = 400
        spectra = [
            rng.uniform(0, 1, (n, 3)) * 10 ** rng.uniform(-4, 0, (n, 1)),  # PSD
            rng.uniform(-1, 1, (n, 3)),  # indefinite
            -rng.uniform(0, 1, (n, 3)),  # negative definite: l1 * l2 > 0
            np.column_stack([np.zeros(n), np.zeros(n), rng.uniform(0, 1, n)]),
        ]
        tensors = np.concatenate([random_tensors(rng, n, s) for s in spectra])
        tensors = np.concatenate([tensors, np.zeros((5, 3, 3))])  # zero tensors
        valid = rng.random(len(tensors)) < 0.9
        assert_scores_match(tensors, valid, threshold)

    def test_threshold_near_the_scores(self, rng):
        """Thresholds at and between real scores: a candidate lost to
        the skip test shows as a missing index."""
        spectrum = rng.uniform(0, 1, (300, 3)) ** 2
        tensors = random_tensors(rng, 300, spectrum)
        valid = np.ones(300, dtype=bool)
        scores = ref_eigen_product_scores(tensors, valid)
        for threshold in np.quantile(scores, [0.1, 0.5, 0.9, 0.99]):
            assert_scores_match(tensors, valid, threshold)
            assert_scores_match(tensors, valid, np.nextafter(threshold, -1.0))

    def test_negative_eigenvalue_pairs(self):
        """l1 = l2 = -1 scores +1, which a bound blind to the lower end
        ``tr - F`` of ``l1 + l2`` would skip."""
        tensors = np.array([np.diag([-1.0, -1.0, 0.5]), np.diag([-1.0, 0.5, -1.0])])
        valid = np.ones(2, dtype=bool)
        scores = assert_scores_match(tensors, valid, 0.5)
        assert np.array_equal(scores, [1.0, 1.0])

    def test_rank_one_tensors_keep_rounding_scores(self, rng):
        """``c v v^T`` has ``l1 * l2 = 0`` exactly, but eigh returns
        products of rounding-sized eigenvalues; at a tiny positive
        threshold only the margin keeps the positive ones scored."""
        v = rng.normal(size=(2000, 3)) * 10 ** rng.uniform(-1, 1, (2000, 3))
        tensors = np.einsum("ni,nj->nij", v, v)
        valid = np.ones(len(tensors), dtype=bool)
        ref_scores = ref_eigen_product_scores(tensors, valid)
        threshold = 1e-300
        assert np.count_nonzero(ref_scores > threshold) > 0
        assert_scores_match(tensors, valid, threshold)

    @pytest.mark.parametrize("scale", [1e-160, 1e-100, 1e120, 1e150])
    def test_extreme_magnitudes(self, rng, scale):
        spectra = [rng.uniform(0, 1, (200, 3)), rng.uniform(-1, 1, (200, 3))]
        tensors = scale * np.concatenate([random_tensors(rng, 200, s) for s in spectra])
        valid = np.ones(len(tensors), dtype=bool)
        scores = ref_eigen_product_scores(tensors, valid)
        for threshold in (np.median(scores[scores > 0]), 1e-4, 1e-300):
            assert_scores_match(tensors, valid, threshold)

    def test_non_finite_tensors_are_not_skipped(self):
        tensors = np.zeros((2, 3, 3))
        tensors[0, 0, 0] = np.nan
        tensors[1, 2, 2] = np.inf
        scores = harris_module._eigen_product_scores(
            tensors, np.zeros(2, dtype=bool), 1e-4
        )
        assert np.array_equal(scores, [-np.inf, -np.inf])


# -- gather index checks --------------------------------------------------------


class TestGatherIndexChecks:
    """The kernels take with ``mode="clip"`` after one range check per
    index array, so an index outside the cloud must still raise
    ``IndexError`` (clipping would read a wrong point instead); the
    outputs themselves are compared with the oracles above."""

    @pytest.mark.parametrize("bad", [60, 10**6, -1])
    def test_covariances(self, rng, bad):
        points = rng.normal(size=(60, 3))
        offsets = np.array([0, 4, 9])
        indices = rng.integers(0, 60, size=9)
        indices[6] = bad
        with pytest.raises(IndexError):
            gathered_moment_covariances(points, indices, offsets)
        center_ids = np.array([0, 0, 0, 0, 1, 1, 1, 1, bad])
        with pytest.raises(IndexError):
            gathered_moment_covariances(
                points, indices % 60, offsets, center_source=points[:2],
                center_ids=center_ids,
            )

    def test_covariances_read_only_the_segments(self, rng):
        """Entries past ``offsets[-1]`` were never taken, so they are
        not checked either."""
        points = rng.normal(size=(60, 3))
        indices = np.concatenate([rng.integers(0, 60, size=9), [60, -5]])
        assert_covariances_match(points, indices, np.array([0, 4, 9]))

    @pytest.mark.parametrize("bad", [80, -1])
    def test_pair_sweep(self, rng, bad):
        points, normals, support = adversarial_pairs(rng)
        needed = np.arange(len(points))
        neighbors = support.indices.copy()
        neighbors[len(neighbors) // 2] = bad
        with pytest.raises(IndexError):
            fpfh_module._spfh_pair_sweep(
                points,
                normals,
                needed,
                RaggedNeighborhoods(neighbors, support.offsets),
                np.zeros((len(needed), FPFH_DIMS)),
            )
        centers = support.segment_ids.copy()
        centers[0] = bad
        with pytest.raises(IndexError):
            assert_angles_match(points, normals, centers, support.indices)
