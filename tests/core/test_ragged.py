"""Unit tests for the ragged-neighborhood (CSR) kernel layer."""

import numpy as np
import pytest

from repro.core.ragged import (
    RadiusHits,
    RaggedNeighborhoods,
    batched_eigh,
    gathered_moment_covariances,
    gathered_weighted_segment_sums,
    segment_blocks,
    segment_histogram,
    segment_max,
    segment_mean,
    segment_min,
    segment_outer_sums,
    segment_sum,
    segment_sum_sequential,
)


def ragged_case(rng, n_segments=50, max_len=12, allow_empty=True):
    """Random ragged lists (including empty and singleton segments)."""
    lists = []
    for _ in range(n_segments):
        length = int(rng.integers(0 if allow_empty else 1, max_len + 1))
        lists.append(rng.integers(0, 100, size=length).astype(np.int64))
    return lists


class TestRaggedNeighborhoods:
    def test_from_lists_offsets_round_trip(self, rng):
        lists = ragged_case(rng)
        ragged = RaggedNeighborhoods.from_lists(lists)
        assert ragged.n_segments == len(lists)
        assert ragged.n_entries == sum(len(lst) for lst in lists)
        back = ragged.to_lists()
        assert len(back) == len(lists)
        for original, restored in zip(lists, back):
            assert np.array_equal(original, restored)

    def test_counts_and_segment_ids(self, rng):
        lists = ragged_case(rng)
        ragged = RaggedNeighborhoods.from_lists(lists)
        assert np.array_equal(ragged.counts, [len(lst) for lst in lists])
        expected_ids = np.concatenate(
            [np.full(len(lst), q) for q, lst in enumerate(lists)]
        ) if ragged.n_entries else np.empty(0)
        assert np.array_equal(ragged.segment_ids, expected_ids)

    def test_distances_alignment(self, rng):
        lists = ragged_case(rng)
        dists = [rng.random(len(lst)) for lst in lists]
        ragged = RaggedNeighborhoods.from_lists(lists, dists)
        assert len(ragged.distances) == ragged.n_entries
        split = np.split(ragged.distances, ragged.offsets[1:-1])
        for original, restored in zip(dists, split):
            assert np.array_equal(original, restored)

    def test_all_empty(self):
        ragged = RaggedNeighborhoods.from_lists([np.empty(0, dtype=np.int64)] * 4)
        assert ragged.n_segments == 4
        assert ragged.n_entries == 0
        assert np.array_equal(ragged.counts, [0, 0, 0, 0])

    def test_no_segments(self):
        ragged = RaggedNeighborhoods.from_lists([], [])
        assert ragged.n_segments == 0
        assert ragged.n_entries == 0
        assert ragged.to_lists() == []
        assert ragged.to_list_pair() == ([], [])

    def test_mask_preserves_order_and_may_empty_segments(self, rng):
        lists = ragged_case(rng, allow_empty=False)
        ragged = RaggedNeighborhoods.from_lists(
            lists, [rng.random(len(lst)) for lst in lists]
        )
        keep = ragged.indices % 2 == 0
        masked = ragged.mask(keep)
        expected = [lst[lst % 2 == 0] for lst in lists]
        for original, restored in zip(expected, masked.to_lists()):
            assert np.array_equal(original, restored)
        assert np.array_equal(masked.distances, ragged.distances[keep])

    def test_select_reorders_and_duplicates_segments(self, rng):
        lists = ragged_case(rng, n_segments=10)
        dists = [rng.random(len(lst)) for lst in lists]
        ragged = RaggedNeighborhoods.from_lists(lists, dists)
        order = np.array([3, 3, 0, 9, 1])
        picked = ragged.select(order)
        assert picked.n_segments == len(order)
        split_d = np.split(ragged.distances, ragged.offsets[1:-1])
        for out_row, src_row in enumerate(order):
            got = picked.to_lists()[out_row]
            assert np.array_equal(got, lists[src_row])
            lo, hi = picked.offsets[out_row], picked.offsets[out_row + 1]
            assert np.array_equal(picked.distances[lo:hi], split_d[src_row])

    def test_validation(self):
        with pytest.raises(ValueError):
            RaggedNeighborhoods(np.arange(3), np.array([0, 2]))  # bad end
        with pytest.raises(ValueError):
            RaggedNeighborhoods(np.arange(3), np.array([0, 2, 1, 3]))  # decreasing
        with pytest.raises(ValueError):
            RaggedNeighborhoods(np.arange(3), np.array([0, 3]), np.zeros(2))
        with pytest.raises(ValueError):
            RaggedNeighborhoods(
                np.arange(3), np.array([0, 3]), np.zeros(3), np.zeros(2)
            )

    def test_sorted_by_distance_keeps_sq_distances_aligned(self, rng):
        lists = ragged_case(rng)
        dists = [rng.uniform(0, 2, size=len(lst)) for lst in lists]
        ragged = RaggedNeighborhoods.from_lists(lists, dists)
        ragged = RaggedNeighborhoods(
            ragged.indices, ragged.offsets, ragged.distances, ragged.distances**2
        )
        ordered = ragged.sorted_by_distance()
        assert np.array_equal(ordered.sq_distances, ordered.distances**2)
        assert ragged.mask(np.ones(ragged.n_entries, bool)).sq_distances is None


class TestRadiusHits:
    def shuffled_hits(self, rng, n_queries=40, n_points=300):
        rows, indices = [], []
        for row in range(n_queries):
            picked = rng.choice(n_points, size=int(rng.integers(0, 15)), replace=False)
            rows.append(np.full(len(picked), row))
            indices.append(picked)
        rows, indices = np.concatenate(rows), np.concatenate(indices)
        order = rng.permutation(len(rows))
        return rows[order], indices[order], rng.uniform(0, 1, size=len(rows))

    def test_order_matches_two_key_lexsort(self, rng):
        rows, indices, sq = self.shuffled_hits(rng)
        hits = RadiusHits(40, 300, 1.0)
        half = len(rows) // 2
        hits.add(rows[:half], indices[:half], sq[:half])
        hits.add(rows[half:], indices[half:], sq[half:])
        result = hits.to_csr()
        order = np.lexsort((indices, rows))
        assert np.array_equal(result.indices, indices[order])
        assert np.array_equal(result.sq_distances, sq[order])
        assert np.array_equal(result.distances, np.sqrt(sq[order]))
        assert np.array_equal(result.counts, np.bincount(rows, minlength=40))

    def test_leaf_runs_match_two_key_lexsort(self, rng):
        """Hits as the tree backends add them: leaf by leaf, each leaf's
        points ascending and its query rows ascending, so the keys arrive
        as interleaved ascending runs (the stable sort's best case)."""
        n_queries, n_points = 60, 500
        leaves = np.array_split(rng.permutation(n_points), 25)
        hits = RadiusHits(n_queries, n_points, 1.0)
        all_rows, all_indices, all_sq = [], [], []
        for leaf in leaves:
            members = np.sort(leaf)
            rows = np.sort(rng.choice(n_queries, size=int(rng.integers(1, 20)), replace=False))
            sq = rng.uniform(0, 2, size=(len(rows), len(members)))
            hits.add_block(rows, members, sq)
            keep = sq <= 1.0
            all_rows.append(np.repeat(rows, len(members))[keep.ravel()])
            all_indices.append(np.tile(members, len(rows))[keep.ravel()])
            all_sq.append(sq[keep])
        rows, indices, sq = map(np.concatenate, (all_rows, all_indices, all_sq))
        result = hits.to_csr()
        order = np.lexsort((indices, rows))
        assert np.array_equal(result.indices, indices[order])
        assert np.array_equal(result.sq_distances, sq[order])
        assert np.array_equal(result.counts, np.bincount(rows, minlength=n_queries))

    def test_radius_filter_is_inclusive(self):
        hits = RadiusHits(2, 5, 0.5)
        hits.add(np.array([0, 0, 1]), np.array([3, 1, 4]), np.array([0.25, 0.3, 0.0]))
        result = hits.to_csr()
        assert result.to_lists()[0].tolist() == [3]
        assert result.to_lists()[1].tolist() == [4]

    def test_block_matches_pairs(self, rng):
        sq = rng.uniform(0, 2, size=(7, 11))
        rows = np.array([5, 0, 3, 9, 2, 8, 1])
        points = np.sort(rng.choice(50, size=11, replace=False))
        block = RadiusHits(10, 50, 1.0)
        block.add_block(rows, points, sq)
        pairs = RadiusHits(10, 50, 1.0)
        pairs.add(np.repeat(rows, 11), np.tile(points, 7), sq.ravel())
        got, expected = block.to_csr(), pairs.to_csr()
        assert np.array_equal(got.offsets, expected.offsets)
        assert np.array_equal(got.indices, expected.indices)
        assert np.array_equal(got.sq_distances, expected.sq_distances)

    def test_no_hits(self):
        hits = RadiusHits(3, 10, 0.1)
        hits.add(np.array([0]), np.array([1]), np.array([1.0]))
        result = hits.to_csr()
        assert result.n_segments == 3 and result.n_entries == 0
        assert len(result.distances) == 0 and len(result.sq_distances) == 0


class TestSegmentReductions:
    @pytest.fixture()
    def case(self, rng):
        lists = ragged_case(rng)
        ragged = RaggedNeighborhoods.from_lists(lists)
        values = rng.normal(size=ragged.n_entries)
        return ragged, values

    def test_segment_sum_matches_loop(self, case):
        ragged, values = case
        split = np.split(values, ragged.offsets[1:-1])
        expected = [chunk.sum() if len(chunk) else 0.0 for chunk in split]
        np.testing.assert_allclose(
            segment_sum(values, ragged.offsets), expected, rtol=1e-12
        )

    def test_segment_sum_2d(self, case):
        ragged, values = case
        stacked = np.stack([values, 2.0 * values], axis=1)
        result = segment_sum(stacked, ragged.offsets)
        np.testing.assert_allclose(
            result[:, 1], 2.0 * segment_sum(values, ragged.offsets), rtol=1e-12
        )

    def test_segment_sum_sequential_bitwise_matches_loop(self, case):
        """bincount accumulation replays ``acc += x`` exactly."""
        ragged, values = case
        stacked = np.stack([values, values * 3.0, values - 1.0], axis=1)
        result = segment_sum_sequential(
            stacked, ragged.segment_ids, ragged.n_segments
        )
        split = np.split(stacked, ragged.offsets[1:-1])
        for q, chunk in enumerate(split):
            acc = np.zeros(3)
            for row in chunk:
                acc += row
            assert np.array_equal(result[q], acc), f"segment {q}"

    def test_segment_mean_empty_is_zero(self, case):
        ragged, values = case
        means = segment_mean(values, ragged.offsets)
        empty = ragged.counts == 0
        assert np.all(means[empty] == 0.0)
        nonempty = ~empty
        split = np.split(values, ragged.offsets[1:-1])
        expected = [chunk.mean() for chunk in split if len(chunk)]
        np.testing.assert_allclose(means[nonempty], expected, rtol=1e-12)

    def test_segment_min_max_with_fills(self, case):
        ragged, values = case
        lo = segment_min(values, ragged.offsets)
        hi = segment_max(values, ragged.offsets)
        split = np.split(values, ragged.offsets[1:-1])
        for q, chunk in enumerate(split):
            if len(chunk):
                assert lo[q] == chunk.min()
                assert hi[q] == chunk.max()
            else:
                assert lo[q] == np.inf
                assert hi[q] == -np.inf

    def test_single_point_segments(self):
        ragged = RaggedNeighborhoods.from_lists(
            [np.array([3]), np.array([7]), np.array([1])]
        )
        values = np.array([2.5, -1.0, 4.0])
        assert np.array_equal(segment_sum(values, ragged.offsets), values)
        assert np.array_equal(segment_min(values, ragged.offsets), values)
        assert np.array_equal(segment_max(values, ragged.offsets), values)

    def test_segment_histogram_matches_loop(self, rng):
        lists = ragged_case(rng)
        ragged = RaggedNeighborhoods.from_lists(lists)
        n_bins = 7
        bins = rng.integers(0, n_bins, size=ragged.n_entries)
        weights = rng.random(ragged.n_entries)
        result = segment_histogram(
            ragged.segment_ids, bins, n_bins, ragged.n_segments, weights=weights
        )
        counts = segment_histogram(
            ragged.segment_ids, bins, n_bins, ragged.n_segments
        )
        split_bins = np.split(bins, ragged.offsets[1:-1])
        split_weights = np.split(weights, ragged.offsets[1:-1])
        for q in range(ragged.n_segments):
            expected = np.bincount(
                split_bins[q], weights=split_weights[q], minlength=n_bins
            )
            np.testing.assert_allclose(result[q], expected, rtol=1e-12)
            assert np.array_equal(
                counts[q], np.bincount(split_bins[q], minlength=n_bins)
            )


class TestCovarianceKernels:
    def test_segment_outer_sums_matches_loop(self, rng):
        lists = ragged_case(rng)
        ragged = RaggedNeighborhoods.from_lists(lists)
        vectors = rng.normal(size=(ragged.n_entries, 3))
        weights = rng.random(ragged.n_entries)
        plain = segment_outer_sums(vectors, ragged.offsets)
        weighted = segment_outer_sums(vectors, ragged.offsets, weights=weights)
        split_v = np.split(vectors, ragged.offsets[1:-1])
        split_w = np.split(weights, ragged.offsets[1:-1])
        for q in range(ragged.n_segments):
            expected = split_v[q].T @ split_v[q]
            np.testing.assert_allclose(plain[q], expected, atol=1e-12)
            expected_w = (split_v[q] * split_w[q][:, None]).T @ split_v[q]
            np.testing.assert_allclose(weighted[q], expected_w, atol=1e-12)

    @pytest.mark.parametrize("block_pairs", [4, 1 << 20])
    def test_gathered_moment_covariances_matches_loop(self, rng, block_pairs):
        """Raw-moment covariances match mean-centered loop references,
        regardless of where chunk boundaries fall."""
        points = rng.normal(size=(40, 3)) * 0.3 + 5.0
        lists = [
            rng.integers(0, 40, size=int(rng.integers(0, 9))).astype(np.int64)
            for _ in range(25)
        ]
        ragged = RaggedNeighborhoods.from_lists(lists)
        covs, means = gathered_moment_covariances(
            points,
            ragged.indices,
            ragged.offsets,
            center_source=points[:25],
            center_ids=ragged.segment_ids,
            block_pairs=block_pairs,
        )
        for q, lst in enumerate(lists):
            if len(lst) == 0:
                assert np.all(covs[q] == 0.0)
                continue
            local = points[lst] - points[q]
            centered = local - local.mean(axis=0)
            expected = centered.T @ centered / len(lst)
            np.testing.assert_allclose(covs[q], expected, atol=1e-12)
            np.testing.assert_allclose(means[q], local.mean(axis=0), atol=1e-12)

    def test_gathered_moment_covariances_without_centering(self, rng):
        vectors = rng.normal(size=(30, 3))
        lists = [np.arange(30, dtype=np.int64), np.array([4], dtype=np.int64)]
        ragged = RaggedNeighborhoods.from_lists(lists)
        covs, _ = gathered_moment_covariances(
            vectors, ragged.indices, ragged.offsets
        )
        centered = vectors - vectors.mean(axis=0)
        np.testing.assert_allclose(
            covs[0], centered.T @ centered / 30, atol=1e-12
        )
        np.testing.assert_allclose(covs[1], np.zeros((3, 3)), atol=1e-15)

    @pytest.mark.parametrize("block_pairs", [3, 1 << 20])
    def test_gathered_weighted_segment_sums_bitwise(self, rng, block_pairs):
        """Chunked gather+bincount replays ``acc += w * table[j]``
        bit-for-bit, wherever the chunk boundaries fall."""
        table = rng.normal(size=(20, 5))
        lists = [
            rng.integers(0, 20, size=int(rng.integers(0, 7))).astype(np.int64)
            for _ in range(12)
        ]
        ragged = RaggedNeighborhoods.from_lists(lists)
        weights = rng.random(ragged.n_entries)
        result = gathered_weighted_segment_sums(
            table, ragged.indices, weights, ragged.offsets, block_pairs=block_pairs
        )
        split_w = np.split(weights, ragged.offsets[1:-1])
        for q, lst in enumerate(lists):
            acc = np.zeros(5)
            for j, w in zip(lst, split_w[q]):
                acc += w * table[j]
            assert np.array_equal(result[q], acc), f"segment {q}"

    def test_lexsort_voxel_groups_matches_unique(self, rng):
        from repro.core.ragged import lexsort_voxel_groups

        keys = rng.integers(-3, 3, size=(200, 3)).astype(np.int64)
        order, sorted_keys, starts, counts = lexsort_voxel_groups(keys)
        unique = np.unique(keys, axis=0)
        assert len(starts) == len(unique)
        assert np.array_equal(sorted_keys[starts], unique)
        assert counts.sum() == len(keys)
        for g, start in enumerate(starts):
            members = order[start : start + counts[g]]
            assert np.all(keys[members] == sorted_keys[start])

    def test_segment_blocks_cover_all_segments_once(self, rng):
        lists = ragged_case(rng)
        ragged = RaggedNeighborhoods.from_lists(lists)
        seen_segments = []
        seen_entries = 0
        for seg_lo, seg_hi, lo, hi in segment_blocks(ragged.offsets, 8):
            assert lo == ragged.offsets[seg_lo] and hi == ragged.offsets[seg_hi]
            seen_segments.extend(range(seg_lo, seg_hi))
            seen_entries += hi - lo
        assert seen_segments == list(range(ragged.n_segments))
        assert seen_entries == ragged.n_entries

    def test_batched_eigh_masks_degenerate_rows(self, rng):
        matrices = np.zeros((3, 3, 3))
        spd = rng.normal(size=(3, 3))
        matrices[1] = spd @ spd.T
        valid = np.array([False, True, False])
        eigenvalues, eigenvectors = batched_eigh(matrices, valid)
        assert np.all(np.isfinite(eigenvalues))
        single_vals, single_vecs = np.linalg.eigh(matrices[1])
        assert np.array_equal(eigenvalues[1], single_vals)
        assert np.array_equal(eigenvectors[1], single_vecs)
