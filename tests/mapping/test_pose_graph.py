"""Unit tests for SE(3) pose-graph optimization."""

import numpy as np
import pytest

from repro.geometry import se3
from repro.mapping import PoseGraph, PoseGraphConfig
from repro.mapping.pose_graph import linearize_edges


def linearize_edge(measurement, pose_i, pose_j):
    """One edge through :func:`linearize_edges`, as a stack of one."""
    residual, jac_i, jac_j = linearize_edges(
        measurement[None], pose_i[None], pose_j[None]
    )
    return residual[0], jac_i[0], jac_j[0]


def circle_truth(n: int, radius: float = 5.0) -> list[np.ndarray]:
    return [
        se3.make_transform(
            se3.rot_z(2 * np.pi * i / n),
            [radius * np.cos(2 * np.pi * i / n), radius * np.sin(2 * np.pi * i / n), 0],
        )
        for i in range(n)
    ]


def noisy_odometry_graph(
    truth: list[np.ndarray], rng: np.random.Generator, scale: float = 0.01
) -> PoseGraph:
    """Chain noisy odometry edges along ``truth``; initial nodes drift."""
    graph = PoseGraph()
    pose = truth[0]
    graph.add_node(pose)
    for i in range(1, len(truth)):
        measurement = se3.compose(
            se3.compose(se3.invert(truth[i - 1]), truth[i]),
            se3.exp(rng.normal(scale=scale, size=6)),
        )
        pose = se3.compose(pose, measurement)
        graph.add_node(pose)
        graph.add_edge(i - 1, i, measurement)
    return graph


def node_rmse(graph: PoseGraph, truth: list[np.ndarray]) -> float:
    return float(
        np.sqrt(
            np.mean(
                [
                    np.sum(
                        (
                            se3.translation_part(node) - se3.translation_part(want)
                        )
                        ** 2
                    )
                    for node, want in zip(graph.nodes, truth)
                ]
            )
        )
    )


def random_transform(
    rng: np.random.Generator, rotation: float = 3.0, translation: float = 5.0
) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-rotation, rotation)
    return se3.exp(
        np.concatenate([rng.uniform(-translation, translation, 3), axis * angle])
    )


def ill_conditioned_graph(seed: int, closure_kind: str = "odometry") -> PoseGraph:
    """A small random graph with large rotations and wildly disparate
    edge weights — the regime where undamped Gauss-Newton steps
    overshoot and must be rejected.  The extra (non-chain) edges are of
    ``closure_kind``."""
    rng = np.random.default_rng(seed)
    graph = PoseGraph()
    n = int(rng.integers(3, 7))
    for _ in range(n):
        graph.add_node(random_transform(rng))
    for i in range(n - 1):
        graph.add_edge(
            i, i + 1, random_transform(rng), weight=10.0 ** rng.uniform(0, 8)
        )
    for _ in range(int(rng.integers(1, 4))):
        i, j = rng.choice(n, 2, replace=False)
        graph.add_edge(
            int(i),
            int(j),
            random_transform(rng),
            weight=10.0 ** rng.uniform(0, 8),
            kind=closure_kind,
        )
    return graph


def numeric_edge_jacobians(
    measurement: np.ndarray,
    pose_i: np.ndarray,
    pose_j: np.ndarray,
    h: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference Jacobians of the edge residual wrt right
    perturbations of either endpoint — the seed implementation's
    numeric differentiation, kept as the parity reference."""

    def residual(p_i, p_j):
        return se3.log(
            se3.compose(se3.invert(measurement), se3.invert(p_i), p_j)
        )

    jac_i = np.zeros((6, 6))
    jac_j = np.zeros((6, 6))
    for k in range(6):
        delta = np.zeros(6)
        delta[k] = h
        plus, minus = se3.exp(delta), se3.exp(-delta)
        jac_i[:, k] = (
            residual(se3.compose(pose_i, plus), pose_j)
            - residual(se3.compose(pose_i, minus), pose_j)
        ) / (2 * h)
        jac_j[:, k] = (
            residual(pose_i, se3.compose(pose_j, plus))
            - residual(pose_i, se3.compose(pose_j, minus))
        ) / (2 * h)
    return jac_i, jac_j


class TestLinearizeEdge:
    """Analytic Jacobians must match central differences to 1e-6."""

    def assert_parity(self, measurement, pose_i, pose_j):
        residual, jac_i, jac_j = linearize_edge(measurement, pose_i, pose_j)
        want_i, want_j = numeric_edge_jacobians(measurement, pose_i, pose_j)
        np.testing.assert_allclose(jac_i, want_i, atol=1e-6)
        np.testing.assert_allclose(jac_j, want_j, atol=1e-6)
        want_r = se3.log(
            se3.compose(se3.invert(measurement), se3.invert(pose_i), pose_j)
        )
        np.testing.assert_allclose(residual, want_r)

    def test_parity_near_identity_residuals(self, rng):
        """Small residuals: the common case during optimization."""
        for _ in range(10):
            pose_i = random_transform(rng)
            pose_j = random_transform(rng)
            noise = se3.exp(rng.normal(scale=1e-3, size=6))
            measurement = se3.compose(
                se3.invert(pose_i), pose_j, noise
            )
            self.assert_parity(measurement, pose_i, pose_j)

    def test_parity_large_residuals(self, rng):
        """Residual rotations up to ~2.9 rad (unoptimized loop edges)."""
        for _ in range(10):
            self.assert_parity(
                random_transform(rng, rotation=2.9),
                random_transform(rng, rotation=2.9),
                random_transform(rng, rotation=2.9),
            )

    def test_parity_near_pi_residual(self):
        """The hardest regime: residual rotation a hair below pi, where
        the SE(3) left-Jacobian inverse is most nonlinear."""
        pose_i = se3.identity()
        for angle in (np.pi - 1e-3, -(np.pi - 1e-3)):
            pose_j = se3.make_transform(se3.rot_z(angle), [1.0, -2.0, 0.5])
            self.assert_parity(se3.identity(), pose_i, pose_j)

    def test_exact_zero_residual(self):
        """A satisfied edge linearizes to r=0, J_j=I, J_i=-Ad."""
        pose_i = se3.make_transform(se3.rot_z(0.7), [1.0, 2.0, 3.0])
        pose_j = se3.make_transform(se3.rot_z(-0.4), [-1.0, 0.0, 2.0])
        measurement = se3.compose(se3.invert(pose_i), pose_j)
        residual, jac_i, jac_j = linearize_edge(measurement, pose_i, pose_j)
        np.testing.assert_allclose(residual, np.zeros(6), atol=1e-12)
        np.testing.assert_allclose(jac_j, np.eye(6), atol=1e-12)
        np.testing.assert_allclose(
            jac_i,
            -se3.adjoint(se3.compose(se3.invert(pose_j), pose_i)),
            atol=1e-12,
        )


class TestConstruction:
    def test_add_node_returns_dense_ids(self):
        graph = PoseGraph()
        assert graph.add_node(se3.identity()) == 0
        assert graph.add_node(se3.identity()) == 1
        assert len(graph) == 2

    def test_bad_pose_shape_rejected(self):
        with pytest.raises(ValueError):
            PoseGraph().add_node(np.eye(3))

    def test_edge_validation(self):
        graph = PoseGraph()
        graph.add_node(se3.identity())
        graph.add_node(se3.identity())
        with pytest.raises(ValueError):
            graph.add_edge(0, 2, se3.identity())
        with pytest.raises(ValueError):
            graph.add_edge(0, 0, se3.identity())
        with pytest.raises(ValueError):
            graph.add_edge(0, 1, se3.identity(), weight=0.0)

    def test_loop_edge_counter(self):
        graph = PoseGraph()
        for _ in range(3):
            graph.add_node(se3.identity())
        graph.add_edge(0, 1, se3.identity())
        graph.add_edge(1, 2, se3.identity(), kind="loop")
        assert graph.n_loop_edges == 1


class TestOptimize:
    def test_consistent_chain_has_zero_error(self, rng):
        """Odometry-only graphs are exactly satisfiable: nothing moves."""
        truth = circle_truth(8)
        graph = noisy_odometry_graph(truth, rng, scale=0.05)
        assert graph.error() < 1e-16
        before = [node.copy() for node in graph.nodes]
        result = graph.optimize()
        assert result.final_error < 1e-12
        for node, want in zip(graph.nodes, before):
            np.testing.assert_allclose(node, want, atol=1e-6)

    def test_loop_edge_corrects_drift(self, rng):
        """An exact loop edge pulls a noisy circle back toward truth."""
        truth = circle_truth(12)
        graph = noisy_odometry_graph(truth, rng, scale=0.02)
        graph.add_edge(
            11, 0, se3.compose(se3.invert(truth[11]), truth[0]), kind="loop"
        )
        before = node_rmse(graph, truth)
        result = graph.optimize()
        after = node_rmse(graph, truth)
        assert result.final_error < result.initial_error
        assert after < 0.6 * before
        for node in graph.nodes:
            assert se3.is_valid_transform(node)

    def test_gauge_node_stays_fixed(self, rng):
        truth = circle_truth(6)
        graph = noisy_odometry_graph(truth, rng, scale=0.05)
        graph.add_edge(5, 0, se3.compose(se3.invert(truth[5]), truth[0]))
        anchor = graph.nodes[0].copy()
        graph.optimize()
        assert np.array_equal(graph.nodes[0], anchor)

    def test_custom_fixed_set(self, rng):
        truth = circle_truth(6)
        graph = noisy_odometry_graph(truth, rng, scale=0.05)
        graph.add_edge(5, 0, se3.compose(se3.invert(truth[5]), truth[0]))
        anchored = {0: graph.nodes[0].copy(), 3: graph.nodes[3].copy()}
        graph.optimize(fixed={0, 3})
        for index, want in anchored.items():
            assert np.array_equal(graph.nodes[index], want)

    def test_empty_graph_is_a_noop(self):
        graph = PoseGraph()
        graph.add_node(se3.identity())
        result = graph.optimize()
        assert result.iterations == 0
        assert result.converged

    def test_deterministic(self, rng):
        truth = circle_truth(10)
        seeds = [np.random.default_rng(3), np.random.default_rng(3)]
        results = []
        for seed_rng in seeds:
            graph = noisy_odometry_graph(truth, seed_rng, scale=0.02)
            graph.add_edge(9, 0, se3.compose(se3.invert(truth[9]), truth[0]))
            graph.optimize(PoseGraphConfig())
            results.append([node.copy() for node in graph.nodes])
        for a, b in zip(*results):
            assert np.array_equal(a, b)

    def test_weights_bias_the_solution(self, rng):
        """A heavier loop edge leaves a smaller loop residual."""
        truth = circle_truth(10)
        residuals = []
        for weight in (1.0, 100.0):
            seed_rng = np.random.default_rng(5)
            graph = noisy_odometry_graph(truth, seed_rng, scale=0.05)
            loop = se3.compose(se3.invert(truth[9]), truth[0])
            graph.add_edge(9, 0, loop, weight=weight, kind="loop")
            graph.optimize()
            gap = se3.compose(
                se3.invert(loop),
                se3.compose(se3.invert(graph.nodes[9]), graph.nodes[0]),
            )
            residuals.append(float(np.linalg.norm(se3.log(gap))))
        assert residuals[1] < residuals[0]


class TestStepRejection:
    """Error-increasing Gauss-Newton steps are rejected, not kept."""

    def test_rejection_path_is_exercised_and_error_never_increases(
        self, monkeypatch
    ):
        """On a graph whose GN steps overshoot, the solver retries with
        heavier damping (visible as extra linear solves) and still ends
        at-or-below the initial error — the regression the seed solver
        failed: it applied the bad step and reported it converged."""
        import repro.mapping.pose_graph as pose_graph_module

        solves = []
        real_splu = pose_graph_module.splu

        def counting_splu(*args, **kwargs):
            solves.append(1)
            return real_splu(*args, **kwargs)

        monkeypatch.setattr(pose_graph_module, "splu", counting_splu)
        graph = ill_conditioned_graph(seed=2)
        result = graph.optimize()
        assert len(solves) > result.iterations  # at least one retry
        assert result.final_error <= result.initial_error
        np.testing.assert_allclose(graph.error(), result.final_error)

    @pytest.mark.parametrize("seed", [3, 4, 9, 13, 22])
    def test_final_error_never_exceeds_initial(self, seed):
        graph = ill_conditioned_graph(seed)
        result = graph.optimize()
        assert result.final_error <= result.initial_error
        if result.converged:
            assert result.final_error <= result.initial_error

    def test_rejected_steps_leave_poses_untouched(self):
        """With zero iterations allowed by damping exhaustion the nodes
        must equal the last accepted state, never a reverted trial."""
        graph = ill_conditioned_graph(seed=2)
        result = graph.optimize()
        for node in graph.nodes:
            assert se3.is_valid_transform(node)
        np.testing.assert_allclose(graph.error(), result.final_error)


class TestResultContract:
    def test_poses_are_copies_not_aliases(self, rng):
        """Mutating the returned poses must not corrupt the graph (the
        seed returned live references to the node arrays)."""
        truth = circle_truth(6)
        graph = noisy_odometry_graph(truth, rng, scale=0.02)
        graph.add_edge(5, 0, se3.compose(se3.invert(truth[5]), truth[0]))
        result = graph.optimize()
        before = [node.copy() for node in graph.nodes]
        for pose in result.poses:
            pose[:] = np.nan
        for node, want in zip(graph.nodes, before):
            np.testing.assert_array_equal(node, want)
        assert np.isfinite(graph.error())

    def test_noop_result_poses_are_copies(self):
        graph = PoseGraph()
        graph.add_node(se3.identity())
        result = graph.optimize()
        result.poses[0][:] = np.nan
        np.testing.assert_array_equal(graph.nodes[0], se3.identity())


def multi_lap_schedule(
    laps: int, per_lap: int = 12, scale: float = 0.02, seed: int = 7
):
    """A noisy multi-lap circle with one loop closure per revisit.

    Returns ``(odometry measurements, loop edges by arrival node)`` —
    a streaming schedule: node ``i``'s odometry edge arrives when ``i``
    does, and ``loops[i]`` lists the ``(i - per_lap, i, measurement)``
    closures discovered at that moment.
    """
    rng = np.random.default_rng(seed)
    one_lap = circle_truth(per_lap)
    truth = [one_lap[i % per_lap] for i in range(laps * per_lap)]
    measurements = [
        se3.compose(
            se3.compose(se3.invert(truth[i - 1]), truth[i]),
            se3.exp(rng.normal(scale=scale, size=6)),
        )
        for i in range(1, len(truth))
    ]
    loops = {
        i: (i - per_lap, i, se3.compose(se3.invert(truth[i - per_lap]), truth[i]))
        for i in range(per_lap, len(truth))
    }
    return measurements, loops


def replay_schedule(measurements, loops, incremental: bool):
    """Stream the schedule into a fresh graph, optimizing per closure."""
    graph = PoseGraph()
    graph.add_node(se3.identity())
    n_seen_edges = 0
    modes = []
    for i in range(1, len(measurements) + 1):
        graph.add_node(se3.compose(graph.nodes[i - 1], measurements[i - 1]))
        graph.add_edge(i - 1, i, measurements[i - 1])
        if i in loops:
            a, b, relative = loops[i]
            graph.add_edge(a, b, relative, kind="loop")
            if incremental:
                new = list(range(n_seen_edges, len(graph.edges)))
                result = graph.optimize(new_edges=new)
            else:
                result = graph.optimize()
            modes.append(result)
            n_seen_edges = len(graph.edges)
    return graph, modes


class TestIncremental:
    def test_incremental_matches_batch_on_multi_lap_schedule(self):
        """Streaming incremental optimization lands on the same optimum
        as always-batch, within a fraction of the noise scale."""
        measurements, loops = multi_lap_schedule(laps=3)
        batch_graph, _ = replay_schedule(measurements, loops, incremental=False)
        inc_graph, results = replay_schedule(measurements, loops, incremental=True)
        assert any(r.mode == "incremental" for r in results)
        batch_error = batch_graph.error()
        inc_error = inc_graph.error()
        assert inc_error <= 1.05 * batch_error
        deltas = [
            np.linalg.norm(
                se3.translation_part(a) - se3.translation_part(b)
            )
            for a, b in zip(batch_graph.nodes, inc_graph.nodes)
        ]
        assert max(deltas) < 0.05  # meters, on a 5 m-radius circle

    def test_incremental_solves_are_local(self):
        """Incremental calls touch a bounded neighborhood, not the
        whole (growing) graph — the point of the iSAM-style path."""
        measurements, loops = multi_lap_schedule(laps=4, per_lap=30)
        _, results = replay_schedule(measurements, loops, incremental=True)
        incremental = [r for r in results if r.mode == "incremental"]
        assert incremental
        n_free_at_end = len(measurements)  # nodes minus the gauge
        assert all(r.n_active_nodes < n_free_at_end for r in incremental)
        late = incremental[len(incremental) // 2 :]
        assert max(r.n_active_nodes for r in late) < n_free_at_end / 2

    def test_incremental_error_accounting_is_consistent(self):
        """final_error from cached accounting equals a recomputation."""
        measurements, loops = multi_lap_schedule(laps=3)
        graph, results = replay_schedule(measurements, loops, incremental=True)
        np.testing.assert_allclose(
            graph.error(), results[-1].final_error, rtol=1e-9, atol=1e-12
        )
        for result in results:
            assert result.final_error <= result.initial_error + 1e-12

    def test_first_call_with_new_edges_runs_batch(self, rng):
        """Without a prior batch there is no linearization to reuse."""
        truth = circle_truth(8)
        graph = noisy_odometry_graph(truth, rng, scale=0.02)
        graph.add_edge(7, 0, se3.compose(se3.invert(truth[7]), truth[0]))
        result = graph.optimize(new_edges=list(range(len(graph.edges))))
        assert result.mode == "batch"

    def test_unknown_new_edges_rejected(self, rng):
        truth = circle_truth(6)
        graph = noisy_odometry_graph(truth, rng, scale=0.02)
        graph.optimize()
        with pytest.raises(ValueError):
            graph.optimize(new_edges=[len(graph.edges)])
        other = PoseGraph()
        other.add_node(se3.identity())
        other.add_node(se3.identity())
        foreign = other.add_edge(0, 1, se3.identity())
        with pytest.raises(ValueError):
            graph.optimize(new_edges=[foreign])
