"""The stacked Gauss-Newton passes against the per-edge loop they replaced.

Each iteration of :meth:`PoseGraph.optimize` linearizes every live edge
at once (:func:`~repro.mapping.pose_graph.linearize_edges`), scores every
edge from one stacked residual pass (``PoseGraph._chi2``) and moves every
free node with one stacked exp / compose / re-orthonormalization
(``PoseGraph._step``).  The oracle is the loop those replaced: one
``linearize_edge`` call and one residual per edge, one ``exp`` per node,
built from the scalar se(3) code of ``tests/geometry/test_se3_stacked.py``.
:class:`ScalarPoseGraph` swaps that loop back in, so whole solves run both
ways.  Every comparison is exact: the Hessian's triplets must come out in
the loop's order (scipy sums duplicates in triplet order) and each node's
gradient must be summed in edge order.
"""

import numpy as np
import pytest
import scipy.sparse as sparse

from repro.mapping import PoseGraph, PoseGraphConfig
from repro.mapping.pose_graph import _BLOCK_COLS, _BLOCK_ROWS, linearize_edges
from tests.geometry.test_se3_stacked import (
    assert_bits_equal,
    scalar_adjoint,
    scalar_exp,
    scalar_invert,
    scalar_left_jacobian_inv,
    scalar_log,
    scalar_orthonormalize_rotation,
)
from tests.mapping.test_pose_graph import (
    ill_conditioned_graph,
    multi_lap_schedule,
    random_transform,
)


def scalar_residual(measurement, pose_i, pose_j):
    return scalar_log(scalar_invert(measurement) @ scalar_invert(pose_i) @ pose_j)


def scalar_linearize_edge(measurement, pose_i, pose_j):
    residual = scalar_residual(measurement, pose_i, pose_j)
    jac_j = scalar_left_jacobian_inv(-residual)
    jac_i = -jac_j @ scalar_adjoint(scalar_invert(pose_j) @ pose_i)
    return residual, jac_i, jac_j


class ScalarPoseGraph(PoseGraph):
    """A pose graph that linearizes, scores and steps one edge or node
    at a time."""

    def _chi2(self, edges, poses=None):
        poses = self.nodes if poses is None else poses
        chi2 = []
        for edge in edges:
            residual = scalar_residual(
                edge.measurement, poses[edge.i], poses[edge.j]
            )
            chi2.append(edge.weight * float(residual @ residual))
        return chi2

    def _assemble(self, edges, column, size):
        gradient = np.zeros(size)
        row_bases = []
        col_bases = []
        blocks = []
        for _, edge in edges:
            col_i = column.get(edge.i)
            col_j = column.get(edge.j)
            if col_i is None and col_j is None:
                continue
            residual, jac_i, jac_j = scalar_linearize_edge(
                edge.measurement, self.nodes[edge.i], self.nodes[edge.j]
            )
            chi2 = edge.weight * float(residual @ residual)
            scale = edge.weight * self._robust_terms(edge, chi2)[0]
            jacobians = []
            if col_i is not None:
                jacobians.append((col_i, jac_i))
            if col_j is not None:
                jacobians.append((col_j, jac_j))
            for col_a, jac_a in jacobians:
                gradient[col_a : col_a + 6] += scale * (jac_a.T @ residual)
                for col_b, jac_b in jacobians:
                    row_bases.append(col_a)
                    col_bases.append(col_b)
                    blocks.append(scale * (jac_a.T @ jac_b))
        rows = (np.asarray(row_bases)[:, None] + _BLOCK_ROWS[None, :]).ravel()
        cols = (np.asarray(col_bases)[:, None] + _BLOCK_COLS[None, :]).ravel()
        data = np.asarray(blocks).reshape(-1)
        hessian = sparse.coo_matrix(
            (data, (rows, cols)), shape=(size, size)
        ).tocsc()
        return hessian, gradient

    def _step(self, free, delta):
        for slot, node in enumerate(free):
            step = delta[6 * slot : 6 * slot + 6]
            if not step.any():
                continue
            moved = self.nodes[node] @ scalar_exp(step)
            moved[:3, :3] = scalar_orthonormalize_rotation(moved[:3, :3])
            self.nodes[node] = moved


def twin(graph: PoseGraph, graph_type=ScalarPoseGraph) -> PoseGraph:
    """A copy of ``graph``'s nodes and edges in a ``graph_type``."""
    copy = graph_type()
    for pose in graph.nodes:
        copy.add_node(pose)
    for edge in graph.edges:
        copy.add_edge(edge.i, edge.j, edge.measurement, edge.weight, edge.kind)
    return copy


ROBUST_CONFIGS = {
    "quadratic": PoseGraphConfig(),
    "huber": PoseGraphConfig(robust_kernel="huber", robust_delta=1.0),
    "cauchy": PoseGraphConfig(robust_kernel="cauchy", robust_delta=1.0),
    "dcs": PoseGraphConfig(loop_switch_phi=1.0),
}


def robust_params(config: PoseGraphConfig):
    return (config.robust_kernel, config.robust_delta, config.loop_switch_phi)


def assert_same_hessian(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    assert_bits_equal(got.data, want.data)


def assert_same_result(got, want):
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.mode == want.mode
    assert got.n_active_nodes == want.n_active_nodes
    assert got.n_downweighted_loops == want.n_downweighted_loops
    assert_bits_equal(got.initial_error, want.initial_error)
    assert_bits_equal(got.final_error, want.final_error)
    assert_bits_equal(got.edge_chi2, want.edge_chi2)
    assert_bits_equal(got.edge_robust_weights, want.edge_robust_weights)
    assert_bits_equal(got.poses, want.poses)


class TestLinearizeEdges:
    def test_matches_per_edge_loop(self, rng):
        """Tiny, large and near-pi residuals, 1e6 m translations."""
        measurements, poses_i, poses_j = [], [], []
        for k in range(60):
            pose_i = random_transform(rng, rotation=3.1, translation=5.0)
            far = 1e6 if k % 7 == 0 else 5.0
            pose_j = random_transform(rng, rotation=3.1, translation=far)
            if k % 3 == 0:
                noise = scalar_exp(rng.normal(scale=10.0 ** -(k % 9), size=6))
                measurement = scalar_invert(pose_i) @ pose_j @ noise
            else:
                measurement = random_transform(rng, rotation=3.1)
            measurements.append(measurement)
            poses_i.append(pose_i)
            poses_j.append(pose_j)
        measurements.append(np.eye(4))
        poses_i.append(np.eye(4))
        poses_j.append(scalar_exp([1.0, -2.0, 0.5, 0.0, 0.0, np.pi - 1e-9]))
        residuals, jac_i, jac_j = linearize_edges(
            np.array(measurements), np.array(poses_i), np.array(poses_j)
        )
        for k, edge in enumerate(zip(measurements, poses_i, poses_j)):
            want = scalar_linearize_edge(*edge)
            assert_bits_equal(residuals[k], want[0])
            assert_bits_equal(jac_i[k], want[1])
            assert_bits_equal(jac_j[k], want[2])


class TestAssemble:
    @pytest.mark.parametrize("robust", sorted(ROBUST_CONFIGS))
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_edge_loop(self, seed, robust):
        """One Hessian and gradient, with every node but the gauge free
        and with every other node free (edges with a fixed end)."""
        graph = ill_conditioned_graph(seed, closure_kind="loop")
        params = robust_params(ROBUST_CONFIGS[robust])
        oracle = twin(graph)
        graph._robust = oracle._robust = params
        edges = list(enumerate(graph.edges))
        n = len(graph.nodes)
        for free in (list(range(1, n)), list(range(1, n, 2))):
            column = {node: 6 * slot for slot, node in enumerate(free)}
            size = 6 * len(free)
            hessian, gradient = graph._assemble(edges, column, size)
            want_hessian, want_gradient = oracle._assemble(edges, column, size)
            assert_same_hessian(hessian, want_hessian)
            assert_bits_equal(gradient, want_gradient)

    @pytest.mark.parametrize("robust", ["huber", "cauchy", "dcs"])
    def test_kernels_bend_these_graphs(self, robust):
        """The robust cases above really reweight edges."""
        bent = 0
        for seed in range(8):
            graph = ill_conditioned_graph(seed, closure_kind="loop")
            graph._robust = robust_params(ROBUST_CONFIGS[robust])
            for edge, chi2 in zip(graph.edges, graph._chi2(graph.edges)):
                bent += graph._robust_terms(edge, chi2)[0] < 1.0
        assert bent > 0


class TestStep:
    def test_zero_step_keeps_pose_bits(self, rng):
        """A node whose step is all zero (signed zeros included) keeps
        its pose object and bits, without re-orthonormalization; the
        others move exactly as the per-node loop moves them."""
        graph = PoseGraph()
        for _ in range(5):
            pose = random_transform(rng)
            # Drift the rotation: re-orthonormalizing would change it.
            pose[:3, :3] += rng.normal(scale=1e-9, size=(3, 3))
            graph.add_node(pose)
        oracle = twin(graph)
        before = list(graph.nodes)
        free = [1, 2, 3, 4]
        delta = rng.normal(scale=0.1, size=24)
        delta[0:6] = 0.0
        delta[12:18] = -0.0
        graph._step(free, delta)
        oracle._step(free, delta)
        assert graph.nodes[1] is before[1] and graph.nodes[3] is before[3]
        assert_bits_equal(graph.nodes[1], oracle.nodes[1])
        assert_bits_equal(graph.nodes[3], oracle.nodes[3])
        assert not np.array_equal(graph.nodes[2], before[2])
        assert_bits_equal(graph.nodes, oracle.nodes)


class TestWholeSolves:
    @pytest.mark.parametrize("robust", sorted(ROBUST_CONFIGS))
    def test_batch_solves_match_per_edge_loop(self, robust):
        config = ROBUST_CONFIGS[robust]
        for seed in range(8):
            graph = ill_conditioned_graph(seed, closure_kind="loop")
            oracle = twin(graph)
            assert_same_result(graph.optimize(config), oracle.optimize(config))
            assert_bits_equal(graph.error(), oracle.error())

    def test_incremental_schedule_matches_per_edge_loop(self):
        """Streaming solves: incremental, escalated and batch calls, the
        error cache and the escalation reference all agree."""
        measurements, loops = multi_lap_schedule(laps=3)
        graphs = [PoseGraph(), ScalarPoseGraph()]
        modes = set()
        for graph in graphs:
            graph.add_node(np.eye(4))
        n_seen = 0
        for i in range(1, len(measurements) + 1):
            for graph in graphs:
                graph.add_node(graph.nodes[i - 1] @ measurements[i - 1])
                graph.add_edge(i - 1, i, measurements[i - 1])
            if i in loops:
                a, b, relative = loops[i]
                results = []
                for graph in graphs:
                    graph.add_edge(a, b, relative, kind="loop")
                    new = list(range(n_seen, len(graph.edges)))
                    results.append(graph.optimize(new_edges=new))
                assert_same_result(*results)
                modes.add(results[0].mode)
                n_seen = len(graphs[0].edges)
        assert {"batch", "incremental"} <= modes

    def test_no_live_edge(self):
        """Free nodes that no edge reaches: an empty Hessian."""
        results = []
        for graph_type in (PoseGraph, ScalarPoseGraph):
            graph = graph_type()
            for k in range(3):
                graph.add_node(scalar_exp(np.full(6, 0.1 * k)))
            graph.add_edge(0, 1, np.eye(4))
            results.append(graph.optimize(fixed={0, 1}))
        assert_same_result(*results)
