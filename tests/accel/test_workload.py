"""Unit tests for functional workload tracing."""

import dataclasses

import numpy as np
import pytest

from repro.accel import TigrisSimulator, build_workload, registration_workload
from repro.core import ApproximateSearchConfig, TraceTable, TwoStageKDTree


@pytest.fixture
def points(rng):
    return rng.normal(size=(300, 3)) * 3.0


@pytest.fixture
def queries(rng):
    return rng.normal(size=(50, 3)) * 3.0


class TestBuildWorkload:
    def test_nn_workload_counts(self, points, queries):
        workload = build_workload(points, queries, kind="nn", leaf_size=32)
        assert workload.n_queries == 50
        assert workload.total_nodes_visited > 0
        assert workload.total_results == 50
        assert not workload.approximate

    def test_radius_workload(self, points, queries):
        workload = build_workload(
            points, queries, kind="radius", radius=1.0, leaf_size=32
        )
        assert workload.kind == "radius"
        assert workload.total_results >= 0
        assert workload.total_leaf_scanned > 0

    def test_leaf_size_one_mimics_canonical(self, points, queries):
        workload = build_workload(points, queries, kind="nn", leaf_size=1)
        # Nearly all visits are top-tree traversal, not leaf scans.
        assert workload.total_toptree_visits > workload.total_leaf_scanned

    def test_top_height_parameter(self, points, queries):
        workload = build_workload(points, queries, kind="nn", top_height=2)
        assert workload.top_height == 2
        assert workload.n_leaf_sets <= 4

    def test_prebuilt_tree(self, points, queries):
        tree = TwoStageKDTree(points, top_height=3)
        workload = build_workload(points, queries, kind="nn", tree=tree)
        assert workload.top_height == 3

    def test_approximate_reduces_visits(self, points):
        # Clustered queries so followers actually fire.
        queries = np.repeat(points[:25], 4, axis=0)
        exact = build_workload(points, queries, kind="nn", leaf_size=64)
        approx = build_workload(
            points, queries, kind="nn", leaf_size=64,
            approx=ApproximateSearchConfig(),
        )
        assert approx.approximate
        assert (
            approx.total_nodes_visited + approx.total_leader_checks
            < exact.total_nodes_visited
        )

    def test_kind_validation(self, points, queries):
        with pytest.raises(ValueError):
            build_workload(points, queries, kind="bogus")

    def test_needs_structure_parameter(self, points, queries):
        with pytest.raises(ValueError):
            build_workload(points, queries, kind="nn", leaf_size=None)

    def test_merge(self, points, queries):
        tree = TwoStageKDTree(points, top_height=3)
        a = build_workload(points, queries, kind="nn", tree=tree)
        b = build_workload(points, queries[:10], kind="nn", tree=tree)
        merged = a.merge(b)
        assert merged.n_queries == 60
        assert merged.total_nodes_visited == (
            a.total_nodes_visited + b.total_nodes_visited
        )

    def test_merge_rejects_different_trees(self, points, queries):
        a = build_workload(points, queries, kind="nn", top_height=2)
        b = build_workload(points, queries, kind="nn", top_height=4)
        with pytest.raises(ValueError):
            a.merge(b)


class TestRegistrationWorkload:
    def test_stage_mix(self, rng):
        source = rng.normal(size=(200, 3)) * 5.0
        target = rng.normal(size=(210, 3)) * 5.0
        workloads = registration_workload(
            source, target, normal_radius=0.8, icp_iterations=3, leaf_size=32
        )
        assert set(workloads) == {"NE", "RPCE"}
        ne, rpce = workloads["NE"], workloads["RPCE"]
        assert ne.kind == "radius"
        assert rpce.kind == "nn"
        # NE queries both clouds once; RPCE queries the source 3 times.
        assert ne.n_queries == 410
        assert rpce.n_queries == 600

    def test_redundancy_vs_leaf_size(self, rng):
        """The Fig. 6 trend at workload level: more redundancy with
        bigger leaf sets."""
        source = rng.normal(size=(150, 3)) * 5.0
        target = rng.normal(size=(150, 3)) * 5.0

        def visits(leaf_size):
            workloads = registration_workload(
                source, target, icp_iterations=2, leaf_size=leaf_size
            )
            return sum(w.total_nodes_visited for w in workloads.values())

        assert visits(64) > visits(8) > visits(1)


def _capture_cloud(rng, case):
    """``(tree, queries)`` of one capture-order case."""
    points = rng.normal(size=(1000, 3)) * 3.0
    queries = np.vstack([rng.normal(size=(150, 3)) * 3.0, points[:50]])
    if case == "leaf-size-128":
        return TwoStageKDTree.from_leaf_size(points, 128), queries
    if case == "leaf-size-1":
        return TwoStageKDTree.from_leaf_size(points, 1), queries
    if case == "top-height-0":
        return TwoStageKDTree(points, top_height=0), queries[::4]
    # Duplicate points: 40 copies of one point among the cloud, queried
    # at the copy and next to it.
    copies = np.vstack([np.tile(points[0], (40, 1)), points[40:]])
    near = np.vstack([copies[:3], copies[0] + 0.05, queries[:40]])
    return TwoStageKDTree(copies, top_height=5), near


class TestCaptureOrder:
    """The back end's MQSN batcher and LRU node cache replay leaf visits
    in trace order, so an exact capture must record each query's scalar
    traversal exactly — its table equals the scalar records' — and
    simulate to the same cycles, traffic and energy as a capture built
    from the scalar search."""

    @pytest.mark.parametrize(
        "case",
        ["leaf-size-128", "leaf-size-1", "top-height-0", "duplicates"],
        ids=["128", "1", "top-height-0", "duplicates"],
    )
    @pytest.mark.parametrize(
        "kind, radius", [("nn", 1.0), ("radius", 1.0), ("radius", 1e-9)],
        ids=["nn", "radius", "radius-empty-results"],
    )
    def test_capture_equals_scalar_loop(self, rng, case, kind, radius):
        tree, queries = _capture_cloud(rng, case)
        capture = build_workload(
            tree.points, queries, kind=kind, radius=radius, tree=tree
        )
        traces = []
        for query in queries:
            if kind == "nn":
                tree.nn(query, trace=traces)
            else:
                tree.radius(query, radius, trace=traces)
        scalar = dataclasses.replace(capture, trace=TraceTable.from_records(traces))
        assert capture.trace == scalar.trace
        assert capture.n_queries == len(queries)
        simulator = TigrisSimulator()
        got, expected = simulator.simulate(capture), simulator.simulate(scalar)
        assert got == expected
