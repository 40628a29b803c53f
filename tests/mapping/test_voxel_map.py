"""Unit tests for the re-anchorable voxel map."""

import numpy as np
import pytest

from repro.geometry import se3
from repro.mapping import VoxelMap, VoxelMapConfig


def make_map(voxel_size: float = 0.5) -> VoxelMap:
    return VoxelMap(VoxelMapConfig(voxel_size=voxel_size))


def assert_same_map(vmap: VoxelMap, expected: VoxelMap) -> None:
    """Fused points and counts are equal bit for bit, row for row, and
    the rows ascend by voxel key."""
    ours, theirs = vmap.to_cloud(), expected.to_cloud()
    np.testing.assert_array_equal(ours.points, theirs.points)
    np.testing.assert_array_equal(
        ours.get_attribute("count"), theirs.get_attribute("count")
    )
    rows = [tuple(key) for key in vmap.keys(ours.points).tolist()]
    assert rows == sorted(set(rows))


FAR = se3.make_transform(np.eye(3), [3e6, 0.0, 0.0])  # beyond the key range


class TestInsertion:
    def test_fusion_counts(self):
        vmap = make_map(1.0)
        points = np.array([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2], [1.5, 0.0, 0.0]])
        vmap.insert(0, points, se3.identity())
        assert vmap.n_voxels == 2
        assert vmap.n_points == 3
        assert vmap.count((0, 0, 0)) == 2
        assert vmap.count((1, 0, 0)) == 1
        assert vmap.count((9, 9, 9)) == 0

    def test_fused_point_is_the_centroid(self):
        vmap = make_map(1.0)
        vmap.insert(0, [[0.2, 0.2, 0.2], [0.4, 0.4, 0.4]], se3.identity())
        np.testing.assert_allclose(vmap.fused_points(), [[0.3, 0.3, 0.3]])

    def test_insertion_applies_the_pose(self):
        vmap = make_map(1.0)
        pose = se3.make_transform(np.eye(3), [10.0, 0.0, 0.0])
        vmap.insert(0, [[0.5, 0.5, 0.5]], pose)
        assert vmap.count((10, 0, 0)) == 1

    def test_contributions_accumulate_across_sources(self):
        vmap = make_map(1.0)
        vmap.insert(0, [[0.2, 0.2, 0.2]], se3.identity())
        vmap.insert(1, [[0.6, 0.6, 0.6]], se3.identity())
        assert vmap.n_voxels == 1
        assert vmap.count((0, 0, 0)) == 2

    def test_reinsert_replaces_contribution(self):
        vmap = make_map(1.0)
        vmap.insert(0, [[0.5, 0.5, 0.5]], se3.identity())
        vmap.insert(0, [[5.5, 0.5, 0.5]], se3.identity())
        assert vmap.n_points == 1
        assert vmap.count((0, 0, 0)) == 0
        assert vmap.count((5, 0, 0)) == 1

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            make_map().insert(0, np.zeros((3, 2)), se3.identity())

    def test_to_cloud_carries_counts(self):
        vmap = make_map(1.0)
        vmap.insert(0, [[0.1, 0.1, 0.1], [0.2, 0.2, 0.2], [3.5, 0.0, 0.0]],
                    se3.identity())
        cloud = vmap.to_cloud()
        assert len(cloud) == 2
        assert sorted(cloud.get_attribute("count").tolist()) == [1, 2]


class TestReAnchoring:
    def test_moved_source_is_rebinned(self):
        vmap = make_map(1.0)
        vmap.insert(0, [[0.5, 0.5, 0.5]], se3.identity())
        moved = vmap.re_anchor({0: se3.make_transform(np.eye(3), [3.0, 0, 0])})
        assert moved == 1
        assert vmap.count((0, 0, 0)) == 0
        assert vmap.count((3, 0, 0)) == 1

    def test_unmoved_source_is_skipped(self):
        vmap = make_map(1.0)
        vmap.insert(0, [[0.5, 0.5, 0.5]], se3.identity())
        assert vmap.re_anchor({0: se3.identity()}) == 0

    def test_unknown_source_is_ignored(self):
        vmap = make_map(1.0)
        vmap.insert(0, [[0.5, 0.5, 0.5]], se3.identity())
        assert vmap.re_anchor({7: se3.identity()}) == 0

    def test_other_contributions_survive(self, rng):
        vmap = make_map(0.5)
        static = rng.uniform(-2, 2, size=(200, 3))
        vmap.insert(0, static, se3.identity())
        vmap.insert(1, rng.uniform(-2, 2, size=(100, 3)),
                    se3.make_transform(np.eye(3), [20.0, 0, 0]))
        before_total = vmap.n_points
        vmap.re_anchor({1: se3.make_transform(np.eye(3), [40.0, 0, 0])})
        assert vmap.n_points == before_total
        # Static contribution's voxels are untouched.
        keys = vmap.keys(static)
        assert all(vmap.count(tuple(key)) > 0 for key in keys)

    def test_repeated_reanchor_cycles_do_not_drift(self, rng):
        """Many re-anchorings leave no drift.

        A keyframe sharing voxels with a static keyframe is re-anchored
        back and forth many times; each re-anchoring replaces its table
        whole, so the final map equals a from-scratch rebuild bit for
        bit."""
        points_static = rng.uniform(-2, 2, size=(300, 3))
        points_moving = rng.uniform(-2, 2, size=(300, 3))
        vmap = make_map(0.5)
        vmap.insert(0, points_static, se3.identity())
        vmap.insert(1, points_moving, se3.identity())
        final_pose = se3.identity()
        for cycle in range(50):
            final_pose = se3.make_transform(
                se3.rot_z(0.01 * ((cycle % 7) + 1)),
                [0.1 * (cycle % 5), -0.1 * (cycle % 3), 0.0],
            )
            assert vmap.re_anchor({1: final_pose}) == 1
        fresh = make_map(0.5)
        fresh.insert(0, points_static, se3.identity())
        fresh.insert(1, points_moving, final_pose)
        assert vmap.n_voxels == fresh.n_voxels
        assert vmap.n_points == fresh.n_points
        assert_same_map(vmap, fresh)

    def test_reanchor_matches_fresh_insertion(self, rng):
        """Re-anchoring equals building the map at the new pose."""
        points = rng.uniform(-3, 3, size=(300, 3))
        new_pose = se3.make_transform(se3.rot_z(0.4), [2.0, -1.0, 0.5])
        incremental = make_map(0.5)
        incremental.insert(0, points, se3.identity())
        incremental.re_anchor({0: new_pose})
        fresh = make_map(0.5)
        fresh.insert(0, points, new_pose)
        assert incremental.n_voxels == fresh.n_voxels
        assert_same_map(incremental, fresh)


class TestHistoryIndependence:
    def test_map_equals_a_fresh_build_at_the_final_poses(self, rng):
        """A map depends on its keyframes' points and final poses only.

        Four overlapping keyframes share voxels, so the order their sums
        are added in shows in the fused points.  Each is re-anchored a
        different number of times; a fresh map built at the final poses,
        inserted in another order, must match bit for bit."""
        clouds = [rng.uniform(-2, 2, size=(200, 3)) for _ in range(4)]
        vmap = make_map(0.5)
        final = {}
        for source_id, cloud in enumerate(clouds):
            final[source_id] = se3.identity()
            vmap.insert(source_id, cloud, final[source_id])
        for cycle in range(12):
            moves = {
                source_id: se3.make_transform(
                    se3.rot_z(0.013 * (cycle + source_id)),
                    [0.07 * cycle, -0.05 * source_id, 0.01 * cycle],
                )
                for source_id in range(4)
                if (cycle + source_id) % 3
            }
            assert vmap.re_anchor(moves) == len(moves)
            final.update(moves)
        fresh = make_map(0.5)
        for source_id in (2, 0, 3, 1):
            fresh.insert(source_id, clouds[source_id], final[source_id])
        assert_same_map(vmap, fresh)

    def test_shared_voxels_sum_in_keyframe_id_order(self, rng):
        """Each voxel's sum is one ``reduceat`` over its keyframes' sums
        taken in keyframe-id order, whatever the insertion order."""
        cells = np.stack(
            np.meshgrid(np.arange(10), np.arange(10), np.arange(5), indexing="ij"),
            axis=-1,
        ).reshape(-1, 3)  # lexicographic, so ascending by voxel key
        clouds = [cells + rng.uniform(0.01, 0.99, size=cells.shape) for _ in range(3)]
        vmap = make_map(1.0)
        for source_id in (2, 0, 1):
            vmap.insert(source_id, clouds[source_id], se3.identity())
        # One point per keyframe and voxel: voxel v's rows are keyframes
        # 0, 1, 2 at rows 3v, 3v + 1, 3v + 2.
        rows = np.stack(clouds, axis=1).reshape(-1, 3)
        sums = np.add.reduceat(rows, np.arange(0, len(rows), 3), axis=0)
        np.testing.assert_array_equal(vmap.fused_points(), sums / 3)


class TestRejectedInput:
    """A rejected insert or re-anchor leaves the map as it was, and every
    keyframe the map holds can still be re-anchored afterwards."""

    SHIFT = se3.make_transform(np.eye(3), [4.0, 0.0, 0.0])

    @staticmethod
    def two_keyframes() -> VoxelMap:
        vmap = make_map(1.0)
        vmap.insert(0, [[0.5, 0.5, 0.5], [0.6, 0.6, 0.6]], se3.identity())
        vmap.insert(1, [[2.5, 0.5, 0.5]], se3.identity())
        return vmap

    @staticmethod
    def assert_unchanged(vmap: VoxelMap) -> None:
        assert (vmap.n_voxels, vmap.n_points) == (2, 3)
        assert_same_map(vmap, TestRejectedInput.two_keyframes())

    @pytest.mark.parametrize(
        "source_id, points, pose, message",
        [
            (2, [[0.5, 0.5, 0.5]], FAR, "packed"),
            (0, [[0.5, 0.5, 0.5]], FAR, "packed"),
            (2, [[np.nan, 0.5, 0.5]], se3.identity(), "finite"),
            (0, [[0.5, 0.5, 0.5]], np.full((4, 4), np.inf), "finite"),
        ],
        ids=["new-id-out-of-range", "repeated-id-out-of-range", "nan-point", "inf-pose"],
    )
    def test_rejected_insert(self, source_id, points, pose, message):
        vmap = self.two_keyframes()
        with pytest.raises(ValueError, match=message):
            vmap.insert(source_id, points, pose)
        self.assert_unchanged(vmap)
        assert vmap.re_anchor({0: self.SHIFT, 1: self.SHIFT, 2: self.SHIFT}) == 2
        assert vmap.count((4, 0, 0)) == 2 and vmap.count((6, 0, 0)) == 1

    @pytest.mark.parametrize(
        "pose, message",
        [(FAR, "packed"), (np.full((4, 4), np.nan), "finite")],
        ids=["out-of-range", "nan-pose"],
    )
    def test_rejected_reanchor(self, pose, message):
        vmap = self.two_keyframes()
        with pytest.raises(ValueError, match=message):
            vmap.re_anchor({0: self.SHIFT, 1: pose})
        self.assert_unchanged(vmap)
        assert vmap.re_anchor({0: self.SHIFT, 1: self.SHIFT}) == 2


class TestQueries:
    def test_radius_returns_sorted_hits_within_r(self, rng):
        vmap = make_map(0.5)
        points = rng.uniform(-5, 5, size=(1000, 3))
        vmap.insert(0, points, se3.identity())
        hits, dists = vmap.radius([0.0, 0.0, 0.0], 2.0)
        assert np.all(dists <= 2.0)
        assert np.all(np.diff(dists) >= 0)
        # Cross-check against a brute-force scan of the fused points.
        fused = vmap.fused_points()
        brute = np.linalg.norm(fused, axis=1)
        assert len(hits) == int(np.sum(brute <= 2.0))

    def test_radius_empty_result(self):
        vmap = make_map(0.5)
        vmap.insert(0, [[10.0, 10.0, 10.0]], se3.identity())
        hits, dists = vmap.radius([0.0, 0.0, 0.0], 1.0)
        assert len(hits) == 0 and len(dists) == 0

    def test_nearest_matches_brute_force(self, rng):
        vmap = make_map(0.5)
        vmap.insert(0, rng.uniform(-5, 5, size=(500, 3)), se3.identity())
        fused = vmap.fused_points()
        for query in ([0.0, 0.0, 0.0], [4.9, -4.9, 0.0], [50.0, 0.0, 0.0]):
            point, dist = vmap.nearest(query)
            brute = np.linalg.norm(fused - np.asarray(query), axis=1)
            assert np.isclose(dist, brute.min())

    def test_nearest_on_empty_map_raises(self):
        with pytest.raises(ValueError):
            make_map().nearest([0.0, 0.0, 0.0])

    def test_negative_radius_rejected(self):
        vmap = make_map()
        vmap.insert(0, [[0.0, 0.0, 0.0]], se3.identity())
        with pytest.raises(ValueError):
            vmap.radius([0.0, 0.0, 0.0], -1.0)


class TestConfig:
    def test_bad_voxel_size_rejected(self):
        with pytest.raises(ValueError):
            VoxelMapConfig(voxel_size=0.0)
