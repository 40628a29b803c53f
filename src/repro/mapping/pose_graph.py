"""Sparse incremental SE(3) pose-graph optimization (the SLAM back end).

Nodes are absolute keyframe poses; edges are relative-pose measurements
— consecutive odometry constraints plus the loop closures that make the
graph over-determined.  Optimization distributes the loop-closure
correction over the whole trajectory by minimizing

    sum_e  w_e * || log( Z_e^-1 * T_i^-1 * T_j ) ||^2

with damped Gauss-Newton over right-multiplicative se(3) perturbations
``T <- T exp(delta)`` (see :func:`repro.geometry.se3.exp`/``log``).

Three things distinguish this back end from a textbook dense solver:

**Analytic Jacobians, stacked.**  The residual's derivatives with
respect to right perturbations of either endpoint are closed-form
(adjoint / inverse-left-Jacobian products, :func:`linearize_edges`),
replacing the seed implementation's central differences — 24 se(3)
exp/log round trips per edge per iteration collapse to one ``log`` and
a couple of 6x6 products.  Parity with the numeric Jacobians is pinned
to 1e-6 by ``tests/mapping/test_pose_graph.py``.  Each Gauss-Newton
iteration makes three stacked passes instead of one Python call per
edge or node: every live edge is linearized at once on ``(E, 4, 4)``
measurement and endpoint stacks (residuals ``(E, 6)``, Jacobians
``(E, 6, 6)``); every edge's error is scored from one stacked residual
pass; and every free node's non-zero step is applied with one stacked
``exp``, compose and re-orthonormalization.  The stacked
:mod:`repro.geometry.se3` maps reproduce the per-edge results bit for
bit, and so do the COO triplets and gradient terms, which come out in
the per-edge loop's order (scipy sums duplicate triplets in triplet
order; each node's gradient is summed in edge order);
``tests/mapping/test_pose_graph_stacked.py`` keeps that loop as its
oracle.

**Sparse normal equations.**  Per-edge 6x6 blocks are assembled as
COO triplets and factored with :mod:`scipy.sparse` (``splu``) instead
of a dense ``(6F, 6F)`` Gauss-Newton matrix, so the solve cost follows
the graph's chain-plus-closures sparsity rather than F^3.

**Incremental updates.**  ``optimize(new_edges=...)`` re-linearizes
only the nodes within ``hop_radius`` graph hops of the newly added
edges, holding the rest of the trajectory fixed and reusing their
cached residual errors — edges entirely inside the untouched region
are never even re-evaluated.  A full batch relinearization runs as a
fallback, either periodically (``relinearize_interval``) or when the
local solve leaves the active neighborhood's per-edge error well above
the level the last batch achieved (``escalation_factor``) — the
signature of a correction that must be redistributed globally, e.g.
the first closure of a large drift loop.

Every accepted Gauss-Newton step must reduce the (weighted) total
error; steps that would increase it are rejected, Levenberg-style
damping is escalated, and the solve retries or stops — so
``PoseGraphResult.final_error <= initial_error`` always holds, and
``converged=True`` is never reported at a worse error than the call
started from.  Node 0 is held fixed as the gauge unless told otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from repro.geometry import se3

__all__ = [
    "PoseGraphConfig",
    "PoseGraphEdge",
    "PoseGraphResult",
    "PoseGraph",
    "linearize_edges",
]


@dataclass(frozen=True)
class PoseGraphConfig:
    """Solver controls.

    ``damping`` seeds the Levenberg-style diagonal; step rejection
    multiplies it by 10 (up to ``max_damping``) until a step reduces
    the error, and acceptance decays it back toward the floor.
    Iteration stops when the update norm drops below ``tolerance``,
    the total error plateaus to within a ``tolerance`` fraction, or no
    damping level can improve the error.

    The incremental knobs: ``hop_radius`` bounds how far from a new
    edge's endpoints the local relinearization reaches;
    ``relinearize_interval`` forces a periodic full batch solve every
    that many incremental calls; ``escalation_factor`` triggers an
    immediate batch solve when the local neighborhood's per-edge error
    after the local pass exceeds that multiple of the last batch's
    graph-wide per-edge error.

    The robustness knobs (all off by default — the defaults reproduce
    the quadratic solver bit-for-bit): ``robust_kernel`` selects an
    M-estimator (``"huber"`` or ``"cauchy"``) applied per edge via IRLS
    reweighting inside the GN loop, with scale ``robust_delta`` (the
    residual-norm level, in the edge's own chi units, beyond which the
    kernel bends the quadratic).  ``loop_switch_phi`` enables
    closed-form switchable-constraint down-weighting (Dynamic
    Covariance Scaling, Agarwal et al. 2013) for *loop* edges only: a
    loop edge whose chi-squared exceeds ``phi`` is scaled by
    ``s^2, s = 2*phi / (phi + chi2) < 1`` — a wrong closure's influence
    is bounded instead of quadratic, while consistent closures
    (``chi2 <= phi``) pass through exactly unchanged.  Huber and DCS
    are exact at the quadratic limit, so enabling them on a
    well-registered graph changes nothing; Cauchy reweights every
    nonzero residual and is therefore not bit-transparent.
    """

    max_iterations: int = 25
    tolerance: float = 1e-8
    damping: float = 1e-8
    max_damping: float = 1e6
    hop_radius: int = 5
    relinearize_interval: int = 8
    escalation_factor: float = 1.5
    robust_kernel: str | None = None
    robust_delta: float = 1.0
    loop_switch_phi: float | None = None

    def __post_init__(self):
        if self.robust_kernel not in (None, "huber", "cauchy"):
            raise ValueError("robust_kernel must be None, 'huber' or 'cauchy'")
        if self.robust_delta <= 0:
            raise ValueError("robust_delta must be positive")
        if self.loop_switch_phi is not None and self.loop_switch_phi <= 0:
            raise ValueError("loop_switch_phi must be positive")


@dataclass(frozen=True)
class PoseGraphEdge:
    """A relative-pose constraint between nodes ``i`` and ``j``.

    ``measurement`` maps node-``j`` coordinates into node-``i``'s frame
    — i.e. the ideal poses satisfy ``T_i^-1 @ T_j == measurement``.
    That matches registration convention: matching source frame ``j``
    against target frame ``i`` returns exactly this matrix.
    """

    i: int
    j: int
    measurement: np.ndarray
    weight: float = 1.0
    kind: str = "odometry"


@dataclass
class PoseGraphResult:
    """What one :meth:`PoseGraph.optimize` call did.

    ``poses`` are copies — mutating them cannot corrupt the graph.
    ``mode`` records which path ran: ``"batch"``, ``"incremental"``,
    or ``"incremental+batch"`` when a local solve escalated to a full
    relinearization.  ``final_error <= initial_error`` by construction.

    When any robustness knob is active, ``edge_chi2`` holds every
    edge's raw chi-squared (``weight * ||r||^2``) at the final poses
    and ``edge_robust_weights`` the IRLS multiplier the kernel/DCS
    applied on top of the edge's own weight (1.0 = untouched), in edge
    order — so a down-weighted (suspect) loop closure is directly
    inspectable.  ``n_downweighted_loops`` counts loop edges whose
    multiplier ended below 1.  All three stay empty/zero on a purely
    quadratic solve (no O(E) recompute on the incremental fast path).
    """

    poses: list[np.ndarray]
    iterations: int
    initial_error: float
    final_error: float
    converged: bool
    mode: str = "batch"
    n_active_nodes: int = 0
    edge_chi2: list[float] = field(default_factory=list)
    edge_robust_weights: list[float] = field(default_factory=list)
    n_downweighted_loops: int = 0


def _residuals(
    measurements: np.ndarray, poses_i: np.ndarray, poses_j: np.ndarray
) -> np.ndarray:
    """``log(Z^-1 T_i^-1 T_j)`` of every edge, as an ``(E, 6)`` stack."""
    return se3.log(
        se3.compose(se3.invert(measurements), se3.invert(poses_i), poses_j)
    )


def linearize_edges(
    measurements: np.ndarray, poses_i: np.ndarray, poses_j: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals and analytic Jacobians of stacked relative-pose constraints.

    Takes ``(E, 4, 4)`` stacks of measurements ``Z`` and endpoint poses.
    For ``r = log(Z^-1 T_i^-1 T_j)`` and right perturbations
    ``T <- T exp(delta)`` of either endpoint:

    - perturbing ``T_j`` multiplies the error transform on the right by
      ``exp(delta)``, so ``J_j = J_r^-1(r) = J_l^-1(-r)`` (the inverse
      right Jacobian of SE(3) at the residual);
    - perturbing ``T_i`` injects ``exp(-delta)`` between ``Z^-1`` and
      ``T_i^-1 T_j``; conjugating it to the right end of the product
      gives ``J_i = -J_r^-1(r) @ Ad(T_j^-1 T_i)``.

    Returns ``(residuals, J_i, J_j)`` of shapes ``(E, 6)``,
    ``(E, 6, 6)`` and ``(E, 6, 6)``.  Exact to first order for any
    residual with rotation angle below pi — central-difference parity
    is pinned to 1e-6 by the test suite.
    """
    residuals = _residuals(measurements, poses_i, poses_j)
    jac_j = se3.left_jacobian_inv(-residuals)
    jac_i = -jac_j @ se3.adjoint(se3.compose(se3.invert(poses_j), poses_i))
    return residuals, jac_i, jac_j


def _weighted_squares(
    edges: Sequence[PoseGraphEdge], residuals: np.ndarray
) -> list[float]:
    """Each edge's quadratic cost ``weight * (r @ r)``; ``r @ r`` is one
    BLAS ``ddot`` per row, as for a lone residual."""
    weights = np.array([edge.weight for edge in edges])
    squares = (residuals[:, None, :] @ residuals[:, :, None])[:, 0, 0]
    return (weights * squares).tolist()


# Flattened intra-block offsets of one 6x6 block in triplet form.
_BLOCK_ROWS = np.repeat(np.arange(6), 6)
_BLOCK_COLS = np.tile(np.arange(6), 6)


class PoseGraph:
    """A mutable SE(3) pose graph with a sparse incremental solver.

    Node poses are owned by the graph: read them freely, but apply
    updates through :meth:`optimize` (the incremental solver caches
    per-edge residual errors keyed to the current poses).
    """

    def __init__(self):
        self.nodes: list[np.ndarray] = []
        self.edges: list[PoseGraphEdge] = []
        # node -> set of neighbor nodes (for hop-radius expansion).
        self._adjacency: dict[int, set[int]] = {}
        # id(edge) -> index, to resolve `new_edges=` arguments.
        self._edge_index: dict[int, int] = {}
        # edge index -> weighted squared residual at the current poses;
        # entries are dropped when an endpoint moves and recomputed
        # lazily, so incremental calls never touch the frozen region.
        self._error_cache: dict[int, float] = {}
        # Graph-wide per-edge error level of the last batch solve (the
        # escalation reference) and calls since that batch.
        self._batch_edge_error: float | None = None
        self._calls_since_batch = 0
        # The active robustification (kernel, delta, loop phi) — set
        # from the config at each optimize() entry; the error cache and
        # the batch reference are only valid for the params they were
        # computed under, so a change invalidates both.
        self._robust: tuple[str | None, float, float | None] = (None, 1.0, None)

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def n_loop_edges(self) -> int:
        return sum(1 for edge in self.edges if edge.kind == "loop")

    def add_node(self, pose: np.ndarray) -> int:
        """Append a node with the given initial pose; returns its id."""
        pose = np.array(pose, dtype=np.float64)
        if pose.shape != (4, 4):
            raise ValueError(f"pose must be 4x4, got {pose.shape}")
        self.nodes.append(pose)
        return len(self.nodes) - 1

    def add_edge(
        self,
        i: int,
        j: int,
        measurement: np.ndarray,
        weight: float = 1.0,
        kind: str = "odometry",
    ) -> PoseGraphEdge:
        """Add the constraint ``T_i^-1 @ T_j == measurement``."""
        n = len(self.nodes)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) references missing nodes")
        if i == j:
            raise ValueError("self-edges are meaningless")
        if weight <= 0:
            raise ValueError("edge weight must be positive")
        edge = PoseGraphEdge(
            i, j, np.array(measurement, dtype=np.float64), weight, kind
        )
        self._edge_index[id(edge)] = len(self.edges)
        self.edges.append(edge)
        self._adjacency.setdefault(i, set()).add(j)
        self._adjacency.setdefault(j, set()).add(i)
        return edge

    # ------------------------------------------------------------------
    # Error bookkeeping.
    # ------------------------------------------------------------------

    def _stacks(
        self, edges: Sequence[PoseGraphEdge], poses: list[np.ndarray] | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(measurements, poses_i, poses_j)`` of ``edges`` as ``(E, 4, 4)``
        stacks, at ``poses`` (default: the graph's)."""
        nodes = np.stack(self.nodes if poses is None else poses)
        return (
            np.stack([edge.measurement for edge in edges]),
            nodes[[edge.i for edge in edges]],
            nodes[[edge.j for edge in edges]],
        )

    def _chi2(
        self, edges: Sequence[PoseGraphEdge], poses: list[np.ndarray] | None = None
    ) -> list[float]:
        """Each edge's quadratic cost at ``poses``, one stacked residual pass."""
        if not edges:
            return []
        return _weighted_squares(edges, _residuals(*self._stacks(edges, poses)))

    def _costs(
        self, edges: Sequence[PoseGraphEdge], poses: list[np.ndarray] | None = None
    ) -> list[float]:
        """Each edge's robust cost at ``poses`` (default: the graph's)."""
        return [
            self._robust_terms(edge, chi2)[1]
            for edge, chi2 in zip(edges, self._chi2(edges, poses))
        ]

    def _robust_terms(
        self, edge: PoseGraphEdge, chi2: float
    ) -> tuple[float, float]:
        """(IRLS weight multiplier, robust cost) of one edge at ``chi2``.

        ``chi2 = weight * ||r||^2`` is the edge's quadratic cost.  Loop
        edges under DCS get the closed-form optimal switch variable
        ``s = min(1, 2*phi / (phi + chi2))``: multiplier ``s^2``, cost
        ``s^2 * chi2 + phi * (s - 1)^2``.  Otherwise the configured
        M-estimator applies — Huber (quadratic to ``delta``, linear
        beyond) or Cauchy (``delta^2 * log1p(chi2 / delta^2)``).  With
        everything off this is exactly ``(1.0, chi2)``, and Huber/DCS
        also return exactly that inside their quadratic regions, which
        is what keeps clean-scene solves bit-identical.
        """
        kernel, delta, phi = self._robust
        if phi is not None and edge.kind == "loop":
            if chi2 <= phi:
                return 1.0, chi2
            s = 2.0 * phi / (phi + chi2)
            return s * s, s * s * chi2 + phi * (s - 1.0) ** 2
        if kernel == "huber":
            if chi2 <= delta * delta:
                return 1.0, chi2
            chi = float(np.sqrt(chi2))
            return delta / chi, delta * (2.0 * chi - delta)
        if kernel == "cauchy":
            scaled = chi2 / (delta * delta)
            return 1.0 / (1.0 + scaled), delta * delta * float(np.log1p(scaled))
        return 1.0, chi2

    def error(self, poses: list[np.ndarray] | None = None) -> float:
        """Total (robustified) weighted squared residual over all edges.

        With no robustness knobs active this is the plain weighted
        quadratic cost; otherwise each edge contributes its robust cost
        — the quantity the solver's monotonicity guarantee is stated
        over.
        """
        total = 0.0
        for cost in self._costs(self.edges, poses):
            total += cost
        return total

    def _cached_total(self) -> float:
        """Total error, recomputing only edges whose endpoints moved."""
        missing = [
            index for index in range(len(self.edges))
            if index not in self._error_cache
        ]
        costs = self._costs([self.edges[index] for index in missing])
        self._error_cache.update(zip(missing, costs))
        return sum(self._error_cache.values())

    def _invalidate(self, edge_indices: Iterable[int]) -> None:
        for index in edge_indices:
            self._error_cache.pop(index, None)

    # ------------------------------------------------------------------
    # Incremental machinery.
    # ------------------------------------------------------------------

    def _resolve_edges(
        self, new_edges: Sequence[PoseGraphEdge | int]
    ) -> list[int]:
        indices = []
        for item in new_edges:
            if isinstance(item, PoseGraphEdge):
                index = self._edge_index.get(id(item))
                if index is None:
                    raise ValueError("new_edges contains an unknown edge")
            else:
                index = int(item)
                if not 0 <= index < len(self.edges):
                    raise ValueError(f"edge index {index} out of range")
            indices.append(index)
        return indices

    def _hop_neighborhood(self, seeds: set[int], hops: int) -> set[int]:
        """Nodes within ``hops`` graph hops of any seed (seeds included)."""
        seen = set(seeds)
        frontier = set(seeds)
        for _ in range(hops):
            grown: set[int] = set()
            for node in frontier:
                grown |= self._adjacency.get(node, set())
            frontier = grown - seen
            if not frontier:
                break
            seen |= frontier
        return seen

    # ------------------------------------------------------------------
    # The Gauss-Newton core.
    # ------------------------------------------------------------------

    def _assemble(
        self,
        edges: list[tuple[int, PoseGraphEdge]],
        column: dict[int, int],
        size: int,
    ) -> tuple[sparse.csc_matrix, np.ndarray]:
        """Normal equations over the free columns as block triplets.

        Every edge with a free endpoint is linearized in one stacked
        pass.  The triplets come out edge by edge, as blocks ``(i, i)``,
        ``(i, j)``, ``(j, i)``, ``(j, j)`` minus those of a fixed
        endpoint, and each node's gradient is summed in edge order: scipy
        sums duplicate triplets in triplet order, so any other order
        moves last bits of the Hessian.
        """
        live = [
            edge for _, edge in edges if edge.i in column or edge.j in column
        ]
        if not live:
            return sparse.csc_matrix((size, size)), np.zeros(size)
        residual, jac_i, jac_j = linearize_edges(*self._stacks(live))
        # IRLS: the robust kernel enters the normal equations as a
        # per-edge weight multiplier evaluated at the current
        # linearization point (1.0 everywhere when robustness is off,
        # or inside Huber/DCS quadratic regions).
        scale = np.array(
            [
                edge.weight * self._robust_terms(edge, chi2)[0]
                for edge, chi2 in zip(live, _weighted_squares(live, residual))
            ]
        )
        free_i = np.array([edge.i in column for edge in live])
        free_j = np.array([edge.j in column for edge in live])
        col_i = np.array([column.get(edge.i, 0) for edge in live])
        col_j = np.array([column.get(edge.j, 0) for edge in live])
        jac_i_t = jac_i.transpose(0, 2, 1)
        jac_j_t = jac_j.transpose(0, 2, 1)
        scale_blocks = scale[:, None, None]
        blocks = np.stack(
            [
                scale_blocks * (jac_i_t @ jac_i),
                scale_blocks * (jac_i_t @ jac_j),
                scale_blocks * (jac_j_t @ jac_i),
                scale_blocks * (jac_j_t @ jac_j),
            ],
            axis=1,
        )
        both = free_i & free_j
        present = np.stack([free_i, both, both, free_j], axis=1)
        row_bases = np.stack([col_i, col_i, col_j, col_j], axis=1)[present]
        col_bases = np.stack([col_i, col_j, col_i, col_j], axis=1)[present]
        rows = (row_bases[:, None] + _BLOCK_ROWS[None, :]).ravel()
        cols = (col_bases[:, None] + _BLOCK_COLS[None, :]).ravel()
        hessian = sparse.coo_matrix(
            (blocks[present].reshape(-1), (rows, cols)), shape=(size, size)
        ).tocsc()
        residual_columns = residual[:, :, None]
        terms = np.stack(
            [
                scale[:, None] * (jac_i_t @ residual_columns)[:, :, 0],
                scale[:, None] * (jac_j_t @ residual_columns)[:, :, 0],
            ],
            axis=1,
        )
        ends = np.stack([free_i, free_j], axis=1)
        gradient = np.zeros((size // 6, 6))
        # Unbuffered: a node's terms are added one by one, in edge order.
        np.add.at(
            gradient, np.stack([col_i, col_j], axis=1)[ends] // 6, terms[ends]
        )
        return hessian, gradient.reshape(-1)

    def _step(self, free: list[int], delta: np.ndarray) -> None:
        """``T <- T exp(step)`` for every free node with a non-zero step:
        one stacked exp, compose and re-orthonormalization.  A node whose
        step is all zero keeps its pose bits."""
        steps = delta.reshape(-1, 6)
        moving = np.flatnonzero(steps.any(axis=1))
        if not len(moving):
            return
        nodes = [free[slot] for slot in moving]
        moved = se3.compose(
            np.stack([self.nodes[node] for node in nodes]),
            se3.exp(steps[moving]),
        )
        # Re-orthonormalize occasionally-accumulating drift so long
        # optimizations keep returning valid rigid poses.
        moved[:, :3, :3] = se3.orthonormalize_rotation(moved[:, :3, :3])
        for node, pose in zip(nodes, moved):
            self.nodes[node] = pose

    def _gauss_newton(
        self,
        config: PoseGraphConfig,
        free: list[int],
        edges: list[tuple[int, PoseGraphEdge]],
    ) -> tuple[int, bool, float, float]:
        """Damped GN with step rejection over ``free`` nodes and ``edges``.

        Mutates ``self.nodes`` (only the free ones, only via accepted
        steps) and returns ``(iterations, converged, initial_local,
        final_local)`` where the local errors sum over ``edges`` only.
        Accepted steps never increase the local error, hence never the
        total error (edges outside ``edges`` touch no free node).
        """
        column = {node: 6 * slot for slot, node in enumerate(free)}
        size = 6 * len(free)
        identity = sparse.identity(size, format="csc")

        edge_list = [edge for _, edge in edges]

        def local_error() -> float:
            return sum(self._costs(edge_list))

        initial_local = local_error()
        previous_error = initial_local
        damping = config.damping
        iterations = 0
        converged = False
        for iterations in range(1, config.max_iterations + 1):
            hessian, gradient = self._assemble(edges, column, size)
            accepted = False
            while True:
                try:
                    delta = splu(hessian + damping * identity).solve(-gradient)
                except RuntimeError:
                    delta = None
                if delta is not None and bool(np.all(np.isfinite(delta))):
                    saved = {node: self.nodes[node] for node in free}
                    self._step(free, delta)
                    trial_error = local_error()
                    if trial_error <= previous_error:
                        accepted = True
                        damping = max(config.damping, damping * 0.1)
                        break
                    # The step made things worse: revert and re-solve
                    # the same linearization with heavier damping.
                    for node, pose in saved.items():
                        self.nodes[node] = pose
                damping *= 10.0
                if damping > config.max_damping:
                    break
            if not accepted:
                # No damping level improves the error from here; the
                # poses are untouched since the last accepted step.
                break
            plateaued = (
                abs(previous_error - trial_error)
                <= config.tolerance * (1.0 + trial_error)
            )
            previous_error = trial_error
            if float(np.linalg.norm(delta)) < config.tolerance or plateaued:
                converged = True
                break
        return iterations, converged, initial_local, previous_error

    # ------------------------------------------------------------------
    # The public solve.
    # ------------------------------------------------------------------

    def optimize(
        self,
        config: PoseGraphConfig | None = None,
        fixed: set[int] = frozenset({0}),
        new_edges: Sequence[PoseGraphEdge | int] | None = None,
    ) -> PoseGraphResult:
        """Optimize the graph; updates ``self.nodes`` in place.

        ``fixed`` nodes keep their poses (the gauge freedom of a pose
        graph: without at least one anchor the whole trajectory can
        drift rigidly at zero cost).

        ``new_edges`` — the edges added since the previous call —
        selects the incremental path: only nodes within
        ``config.hop_radius`` hops of the new edges' endpoints are
        re-linearized and solved; the rest of the trajectory is frozen
        and its cached residuals are reused untouched.  A full batch
        relinearization runs instead (or afterwards) on the first call,
        every ``config.relinearize_interval`` incremental calls, or
        when the local solve cannot pull the active neighborhood's
        per-edge error back near the last batch level.  Both paths
        reject error-increasing steps, so ``final_error <=
        initial_error`` in the result, always.
        """
        config = config or PoseGraphConfig()
        robust = (
            config.robust_kernel, config.robust_delta, config.loop_switch_phi
        )
        if robust != self._robust:
            # Cached errors and the batch escalation reference were
            # computed under the previous robustification — both are
            # stale the moment the cost function changes.
            self._robust = robust
            self._error_cache.clear()
            self._batch_edge_error = None
        free = [n for n in range(len(self.nodes)) if n not in fixed]
        if not free or not self.edges:
            total = self.error()
            return PoseGraphResult(
                [pose.copy() for pose in self.nodes], 0, total, total, True
            )

        initial_error = self._cached_total()
        iterations = 0
        converged = True
        mode = "batch"
        n_active = len(free)
        final_error = initial_error

        run_batch = True
        if new_edges is not None and self._batch_edge_error is not None:
            if self._calls_since_batch < config.relinearize_interval:
                seeds: set[int] = set()
                for index in self._resolve_edges(new_edges):
                    seeds.add(self.edges[index].i)
                    seeds.add(self.edges[index].j)
                active = self._hop_neighborhood(seeds, config.hop_radius)
                active -= set(fixed)
                if len(active) < len(free):
                    active_nodes = sorted(active)
                    active_edges = [
                        (index, edge)
                        for index, edge in enumerate(self.edges)
                        if edge.i in active or edge.j in active
                    ]
                    mode = "incremental"
                    n_active = len(active_nodes)
                    self._calls_since_batch += 1
                    run_batch = False
                    if active_nodes:
                        its, converged, local_initial, local_final = (
                            self._gauss_newton(
                                config, active_nodes, active_edges
                            )
                        )
                        iterations += its
                        self._invalidate(index for index, _ in active_edges)
                        final_error = initial_error - (
                            local_initial - local_final
                        )
                        # Escalate when the neighborhood stays strained
                        # well past the level the last batch achieved:
                        # the correction must spread globally.
                        per_edge = local_final / max(len(active_edges), 1)
                        threshold = (
                            config.escalation_factor * self._batch_edge_error
                            + config.tolerance
                        )
                        if per_edge > threshold:
                            run_batch = True
                            mode = "incremental+batch"

        if run_batch:
            indexed = list(enumerate(self.edges))
            its, converged, _, final_error = self._gauss_newton(
                config, free, indexed
            )
            iterations += its
            self._error_cache.clear()
            self._batch_edge_error = final_error / len(self.edges)
            self._calls_since_batch = 0
            if mode == "batch":
                n_active = len(free)

        edge_chi2: list[float] = []
        edge_robust_weights: list[float] = []
        n_downweighted_loops = 0
        if config.robust_kernel is not None or config.loop_switch_phi is not None:
            # One O(E) diagnostic pass at the final poses: which edges
            # did the robustification actually bend?  Skipped entirely
            # on quadratic solves so the incremental path stays cheap.
            for edge, chi2 in zip(self.edges, self._chi2(self.edges)):
                multiplier = self._robust_terms(edge, chi2)[0]
                edge_chi2.append(chi2)
                edge_robust_weights.append(multiplier)
                if edge.kind == "loop" and multiplier < 1.0:
                    n_downweighted_loops += 1

        return PoseGraphResult(
            [pose.copy() for pose in self.nodes],
            iterations,
            initial_error,
            final_error,
            converged,
            mode,
            n_active,
            edge_chi2,
            edge_robust_weights,
            n_downweighted_loops,
        )
