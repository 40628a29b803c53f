"""Search workloads: the functional traces the accelerator model replays.

A :class:`SearchWorkload` bundles the trace of one batch of queries, a
columnar :class:`~repro.core.trace.TraceTable` captured by the two-stage
KD-tree (exact or approximate) over a concrete query set, plus the tree
geometry the hardware needs (leaf count/sizes, top-tree height).  The
same workload object feeds the Tigris simulator and the CPU/GPU
baseline models, so every Fig. 11-15 comparison runs identical work;
every model reads the table's columns, and the workload's totals are
column sums.

The canonical KD-tree of the baselines is represented as a two-stage
tree with leaf size 1 (paper Sec. 4.1: "The classic KD-tree has a
leaf-size one"), making "Base-KD vs Base-2SKD vs Acc-KD vs Acc-2SKD"
a pure configuration sweep.

Exact workload capture passes ``trace=`` to the tree's batched
searches (``nn_batch``, ``radius_batch_csr``), which then run the
lockstep traversal of :mod:`repro.core.twostage`: every query advances
its own depth-first stack, one pop per round, so the table records
exactly the traversal of each query's depth-first search, in its order,
rather than the batched schedules of the untraced path (whose NN pass
walks every home path first and visits a different node set).  Counts
therefore replay the accelerator-faithful per-query semantics, and the
back end's order-dependent models (MQSN batching, the node cache) see
the depth-first leaf-visit order.  Approximate capture stays in row
order: leader buffers fill as queries arrive, so
:class:`ApproximateSearch` runs its depth-first searches one row after
another and converts their records into one table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.approx import ApproximateSearch, ApproximateSearchConfig
from repro.core.trace import TraceTable
from repro.core.twostage import TwoStageKDTree

__all__ = ["SearchWorkload", "build_workload", "registration_workload"]


@dataclass
class SearchWorkload:
    """A batch's trace table plus tree geometry."""

    name: str
    kind: str  # "nn" | "radius"
    trace: TraceTable
    tree_n: int
    top_height: int
    n_leaf_sets: int
    mean_leaf_size: float
    approximate: bool = False

    @property
    def n_queries(self) -> int:
        return self.trace.n_queries

    @property
    def total_toptree_visits(self) -> int:
        return int(self.trace.toptree_visits.sum())

    @property
    def total_toptree_bypassed(self) -> int:
        return int(self.trace.toptree_bypassed.sum())

    @property
    def total_leaf_scanned(self) -> int:
        return int(self.trace.scanned.sum())

    @property
    def total_leader_checks(self) -> int:
        return int(self.trace.leader_checks.sum())

    @property
    def total_nodes_visited(self) -> int:
        """The Fig. 6b unit: all distance computations against points."""
        return self.total_toptree_visits + self.total_leaf_scanned

    @property
    def total_results(self) -> int:
        return int(self.trace.results.sum())

    def merge(self, other: "SearchWorkload") -> "SearchWorkload":
        """Concatenate two workloads over the same tree."""
        if (self.tree_n, self.top_height) != (other.tree_n, other.top_height):
            raise ValueError("can only merge workloads over the same tree shape")
        return SearchWorkload(
            name=f"{self.name}+{other.name}",
            kind=self.kind if self.kind == other.kind else "mixed",
            trace=TraceTable.concat([self.trace, other.trace]),
            tree_n=self.tree_n,
            top_height=self.top_height,
            n_leaf_sets=self.n_leaf_sets,
            mean_leaf_size=self.mean_leaf_size,
            approximate=self.approximate or other.approximate,
        )


def build_workload(
    points: np.ndarray,
    queries: np.ndarray,
    kind: str = "nn",
    radius: float = 1.0,
    leaf_size: int | None = 128,
    top_height: int | None = None,
    approx: ApproximateSearchConfig | None = None,
    name: str | None = None,
    tree: TwoStageKDTree | None = None,
) -> SearchWorkload:
    """Run the functional search and capture traces.

    Exactly one of ``leaf_size`` / ``top_height`` / ``tree`` shapes the
    structure.  With ``approx`` set, the leaders/followers algorithm
    runs (fresh leader state, as one hardware pass).
    """
    if kind not in ("nn", "radius"):
        raise ValueError("kind must be 'nn' or 'radius'")
    if tree is None:
        if top_height is not None:
            tree = TwoStageKDTree(points, top_height=top_height)
        elif leaf_size is not None:
            tree = TwoStageKDTree.from_leaf_size(points, leaf_size)
        else:
            raise ValueError("provide leaf_size, top_height, or tree")

    searcher = tree if approx is None else ApproximateSearch(tree, approx)
    tables: list[TraceTable] = []
    if kind == "nn":
        searcher.nn_batch(queries, trace=tables)
    else:
        searcher.radius_batch_csr(queries, radius, trace=tables)

    return SearchWorkload(
        name=name or f"{kind}-h{tree.top_height}",
        kind=kind,
        trace=tables[0],
        tree_n=tree.n,
        top_height=tree.top_height,
        n_leaf_sets=tree.n_leaf_sets,
        mean_leaf_size=tree.mean_leaf_size,
        approximate=approx is not None,
    )


def registration_workload(
    source_points: np.ndarray,
    target_points: np.ndarray,
    normal_radius: float = 0.75,
    icp_iterations: int = 10,
    leaf_size: int | None = 128,
    top_height: int | None = None,
    approx: ApproximateSearchConfig | None = None,
    name: str = "registration",
) -> dict[str, SearchWorkload]:
    """The dense KD-tree searches of one registration pass.

    Reproduces the workload mix of a design point: radius searches of
    Normal Estimation over both clouds, plus the RPCE NN searches of
    every ICP iteration (source queried against the target tree; the
    query *count* per iteration is what the hardware sees, so the
    stationary source stands in for the slowly-moving ICP source —
    documented simulator approximation).

    Returns one workload per stage: ``{"NE": ..., "RPCE": ...}``.
    """
    source_points = np.asarray(source_points, dtype=np.float64)
    target_points = np.asarray(target_points, dtype=np.float64)

    def make_tree(points: np.ndarray) -> TwoStageKDTree:
        if top_height is not None:
            return TwoStageKDTree(points, top_height=top_height)
        return TwoStageKDTree.from_leaf_size(points, leaf_size)

    source_tree = make_tree(source_points)
    target_tree = make_tree(target_points)

    ne_source = build_workload(
        source_points,
        source_points,
        kind="radius",
        radius=normal_radius,
        tree=source_tree,
        approx=approx,
        name=f"{name}-NE-src",
    )
    ne_target = build_workload(
        target_points,
        target_points,
        kind="radius",
        radius=normal_radius,
        tree=target_tree,
        approx=approx,
        name=f"{name}-NE-tgt",
    )
    # Frame sizes generally differ slightly, so merge the two NE passes
    # under the source tree's geometry (the counts are what matter).
    ne = SearchWorkload(
        name=f"{name}-NE",
        kind="radius",
        trace=TraceTable.concat([ne_source.trace, ne_target.trace]),
        tree_n=source_tree.n,
        top_height=source_tree.top_height,
        n_leaf_sets=source_tree.n_leaf_sets,
        mean_leaf_size=source_tree.mean_leaf_size,
        approximate=approx is not None,
    )

    rpce_iterations = [
        build_workload(
            target_points,
            source_points,
            kind="nn",
            tree=target_tree,
            approx=approx,
            name=f"{name}-RPCE-iter",
        ).trace
        for _ in range(icp_iterations)
    ]
    rpce = SearchWorkload(
        name=f"{name}-RPCE",
        kind="nn",
        trace=TraceTable.concat(rpce_iterations),
        tree_n=target_tree.n,
        top_height=target_tree.top_height,
        n_leaf_sets=target_tree.n_leaf_sets,
        mean_leaf_size=target_tree.mean_leaf_size,
        approximate=approx is not None,
    )
    return {"NE": ne, "RPCE": rpce}
