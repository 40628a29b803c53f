"""Approximate KD-tree search (paper Sec. 4.3, Algorithm 1).

Queries that arrive at the same leaf set of the two-stage KD-tree are
spatially close, so their search results are similar.  The algorithm
splits them into *leaders* — which search the leaf set exhaustively and
publish their results — and *followers* — which search only inside the
result set of their closest leader, provided that leader is within a
distance threshold ``thd``.  A follower thus compares against
``L + R`` points (L leaders, R leader-result points) instead of the
``N`` leaf children — the efficiency trade-off of the paper's
first-order cost model.

Hardware details modelled faithfully:

* the per-leaf leader buffer is capped (16 entries in the paper); once
  full, out-of-range queries fall back to the precise path but are *not*
  added as leaders (Sec. 5.3 — capping improves accuracy);
* leader checks are distance computations executed on the back-end PEs,
  so they are charged to :class:`~repro.kdtree.stats.SearchStats` via the
  ``leader_checks`` counter and appear in the query trace.

The same machinery serves NN, kNN and radius search — the paper's
approximate algorithm covers both NN and radius (Sec. 7 highlights this
versus NN-only prior work); kNN support is our extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.ragged import RaggedNeighborhoods
from repro.core.trace import QueryTrace, TraceTable
from repro.core.twostage import TwoStageKDTree
from repro.kdtree._validate import check_batch
from repro.kdtree.stats import SearchStats

__all__ = ["ApproximateSearchConfig", "ApproximateSearch"]


@dataclass(frozen=True)
class ApproximateSearchConfig:
    """Tuning knobs for the leaders/followers algorithm.

    ``nn_threshold``
        The discriminator ``thd`` for NN/kNN queries, in point units.
        The paper uses 1.2 m on KITTI.
    ``radius_threshold_fraction``
        ``thd`` for radius queries as a fraction of the query radius.
        The paper uses 40 % of the original radius.
    ``leader_capacity``
        Leader-buffer entries per leaf set (paper: 16).
    ``leader_result_k``
        How many nearest neighbors a leader retains as its published
        result for NN-type queries.  1 reproduces the strict Algorithm 1
        reading (followers adopt the leader's nearest neighbor); larger
        values trade work for accuracy and are used by the ablation
        bench.
    """

    nn_threshold: float = 1.2
    radius_threshold_fraction: float = 0.4
    leader_capacity: int = 16
    leader_result_k: int = 1

    def __post_init__(self):
        if self.nn_threshold < 0:
            raise ValueError("nn_threshold must be >= 0")
        if not 0.0 <= self.radius_threshold_fraction <= 1.0:
            raise ValueError("radius_threshold_fraction must be in [0, 1]")
        if self.leader_capacity < 0:
            raise ValueError("leader_capacity must be >= 0")
        if self.leader_result_k < 1:
            raise ValueError("leader_result_k must be >= 1")


@dataclass
class _LeafLeaders:
    """Leader buffer state for one leaf set."""

    positions: list[np.ndarray] = field(default_factory=list)
    results: list[np.ndarray] = field(default_factory=list)  # point indices

    def __len__(self) -> int:
        return len(self.positions)


class ApproximateSearch:
    """Stateful approximate searcher over a :class:`TwoStageKDTree`.

    Leader state accumulates across queries, mirroring the accelerator's
    leader buffers filling up over one batch of queries.  Construct a
    fresh instance (or call :meth:`reset`) per batch, as the hardware
    does per search pass.
    """

    def __init__(
        self,
        tree: TwoStageKDTree,
        config: ApproximateSearchConfig | None = None,
    ):
        self._tree = tree
        self._config = config or ApproximateSearchConfig()
        self._leaders: dict[int, _LeafLeaders] = {}

    @property
    def tree(self) -> TwoStageKDTree:
        return self._tree

    @property
    def points(self) -> np.ndarray:
        """The indexed points (uniform backend interface)."""
        return self._tree.points

    @property
    def config(self) -> ApproximateSearchConfig:
        return self._config

    def reset(self) -> None:
        """Clear all leader buffers."""
        self._leaders.clear()

    def leader_count(self, leaf_id: int) -> int:
        """Number of leaders currently registered for a leaf set."""
        state = self._leaders.get(leaf_id)
        return len(state) if state else 0

    @property
    def total_leaders(self) -> int:
        return sum(len(state) for state in self._leaders.values())

    # ------------------------------------------------------------------
    # Algorithm 1, written once and parameterized by the leader-result
    # publication policy (NN keeps top-k, radius keeps the in-radius set).
    # ------------------------------------------------------------------

    def _make_leaf_scan(
        self,
        threshold: float,
        publish: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ):
        def scan(leaf_id: int, query: np.ndarray, record):
            state = self._leaders.setdefault(leaf_id, _LeafLeaders())
            if len(state):
                # Find the closest leader (distance comps on the PEs).
                leader_positions = np.asarray(state.positions)
                diff = leader_positions - query
                leader_sq = np.einsum("ij,ij->i", diff, diff)
                record.leader_checks = len(state)
                closest = int(np.argmin(leader_sq))
                if leader_sq[closest] < threshold * threshold:
                    # Approximate path: search the leader's result set.
                    result_indices = state.results[closest]
                    record.approximate = True
                    record.scanned = len(result_indices)
                    if len(result_indices) == 0:
                        return result_indices, np.empty(0)
                    members = self._tree.points[result_indices]
                    diff = members - query
                    sq = np.einsum("ij,ij->i", diff, diff)
                    return result_indices, sq
            # Precise path: exhaustive scan of the leaf set.
            indices, sq = self._tree.scan_leaf(leaf_id, query)
            record.scanned = len(indices)
            if len(state) < self._config.leader_capacity:
                state.positions.append(np.array(query, dtype=np.float64))
                state.results.append(publish(indices, sq))
                record.became_leader = True
            return indices, sq

        return scan

    @staticmethod
    def _top_k_publisher(k: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        def publish(indices: np.ndarray, sq: np.ndarray) -> np.ndarray:
            if len(indices) <= k:
                return np.array(indices, dtype=np.int64)
            top = np.argpartition(sq, k - 1)[:k]
            return np.array(indices[top], dtype=np.int64)

        return publish

    @staticmethod
    def _in_radius_publisher(r: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        r_sq = r * r

        def publish(indices: np.ndarray, sq: np.ndarray) -> np.ndarray:
            mask = sq <= r_sq
            return np.array(indices[mask], dtype=np.int64)

        return publish

    # ------------------------------------------------------------------
    # One query at a time: the two-stage tree's depth-first search with
    # Algorithm 1 as its leaf scan.
    # ------------------------------------------------------------------

    def nn(
        self,
        query: np.ndarray,
        stats: SearchStats | None = None,
        trace: list[QueryTrace] | None = None,
    ) -> tuple[int, float]:
        """Approximate nearest neighbor: (point index, distance)."""
        scan = self._make_leaf_scan(
            self._config.nn_threshold,
            self._top_k_publisher(self._config.leader_result_k),
        )
        return self._tree.nn(query, stats=stats, trace=trace, leaf_scan=scan)

    def knn(
        self,
        query: np.ndarray,
        k: int,
        stats: SearchStats | None = None,
        trace: list[QueryTrace] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Approximate kNN (extension; leaders publish their top-k)."""
        scan = self._make_leaf_scan(
            self._config.nn_threshold,
            self._top_k_publisher(max(k, self._config.leader_result_k)),
        )
        return self._tree.knn(query, k, stats=stats, trace=trace, leaf_scan=scan)

    def radius(
        self,
        query: np.ndarray,
        r: float,
        stats: SearchStats | None = None,
        sort: bool = False,
        trace: list[QueryTrace] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Approximate radius search (leaders publish their in-radius set)."""
        scan = self._make_leaf_scan(
            self._config.radius_threshold_fraction * r,
            self._in_radius_publisher(r),
        )
        return self._tree.radius(
            query, r, stats=stats, sort=sort, trace=trace, leaf_scan=scan
        )

    # ------------------------------------------------------------------
    # Batch queries.  Leaders/followers is *stateful*: each query may
    # publish leaders that change what later queries see, exactly as the
    # hardware's leader buffers fill over one search pass.  The batch
    # entry points therefore validate the whole batch, then run the
    # single-query methods in row order rather than reordering work by
    # leaf.  With ``trace`` (a list) the rows' records become one
    # TraceTable, appended to it.
    # ------------------------------------------------------------------

    def nn_batch(
        self,
        queries: np.ndarray,
        stats: SearchStats | None = None,
        trace: list[TraceTable] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Approximate NN for every row of ``queries``, in row order."""
        queries = check_batch(queries, self._tree.ndim)
        indices = np.empty(len(queries), dtype=np.int64)
        dists = np.empty(len(queries))
        records = None if trace is None else []
        for i, query in enumerate(queries):
            indices[i], dists[i] = self.nn(query, stats, records)
        if trace is not None:
            trace.append(TraceTable.from_records(records))
        return indices, dists

    def knn_batch(
        self,
        queries: np.ndarray,
        k: int,
        stats: SearchStats | None = None,
        trace: list[TraceTable] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Approximate kNN for every row: (Q, min(k, n)) arrays."""
        queries = check_batch(queries, self._tree.ndim)
        if k <= 0:
            raise ValueError("k must be positive")
        k = min(k, self._tree.n)
        # The approximate path may return fewer than k neighbors when a
        # leader's published result set is small; pad rows with misses.
        indices = np.full((len(queries), k), -1, dtype=np.int64)
        dists = np.full((len(queries), k), np.inf)
        records = None if trace is None else []
        for i, query in enumerate(queries):
            row_idx, row_dist = self.knn(query, k, stats, records)
            indices[i, : len(row_idx)] = row_idx
            dists[i, : len(row_dist)] = row_dist
        if trace is not None:
            trace.append(TraceTable.from_records(records))
        return indices, dists

    def radius_batch_csr(
        self,
        queries: np.ndarray,
        r: float,
        stats: SearchStats | None = None,
        sort: bool = False,
        trace: list[TraceTable] | None = None,
    ) -> RaggedNeighborhoods:
        """Approximate radius search for every row, in row order, in CSR
        form: one concatenation over the per-row results."""
        queries = check_batch(queries, self._tree.ndim, r)
        records = None if trace is None else []
        rows = [
            self.radius(query, r, stats, sort=sort, trace=records)
            for query in queries
        ]
        if trace is not None:
            trace.append(TraceTable.from_records(records))
        return RaggedNeighborhoods.from_lists(
            [indices for indices, _ in rows], [dists for _, dists in rows]
        )
