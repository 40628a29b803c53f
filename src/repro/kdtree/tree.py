"""Canonical KD-tree (paper Sec. 4.1, Fig. 5a).

The classic Bentley KD-tree: every node stores one k-dimensional point
whose coordinate along the node's split dimension implicitly defines a
splitting hyperplane; the median point is chosen so the tree is balanced.
Search recursively traverses the tree, pruning any subtree whose region
cannot intersect the query's current hypersphere — the pruning that makes
the search efficient but *inherently sequential*, which is the problem
the two-stage structure in :mod:`repro.core` exists to solve.

The implementation is array-backed (flat numpy arrays indexed by node id)
with iterative explicit-stack traversal, and instrumented: every search
accepts an optional :class:`~repro.kdtree.stats.SearchStats` accumulator.
Pruning uses the incremental per-axis bound (as in FLANN/scipy) so node
visit counts are representative of a production implementation.

Batch queries
-------------
:meth:`KDTree.nn_batch`, :meth:`KDTree.knn_batch`, and
:meth:`KDTree.radius_batch` run a *level-synchronous frontier sweep*:
the per-query traversal stacks are fused into flat ``(node, query)``
pair arrays advanced one level per round with NumPy masks, pruned
against each query's running best bound exactly as the scalar recursion
prunes.  Nearest-neighbor and kNN batches first descend every query
along its near path (no backtracking) to seed tight bounds — the
vectorized analogue of the depth-first dive the scalar search performs
before it backtracks.  Results are bit-identical to the scalar methods:
distances accumulate per coordinate in the same order on both paths,
ties resolve to the lowest point index (nn/knn take the lexicographic
``(distance, index)`` minimum) and radius results come back in
ascending index order.  Radius work counters are exactly the scalar
loop's (radius pruning is query-history-independent); nn/knn counters
reflect the frontier schedule actually executed and may differ slightly
from a scalar loop's.  Passing ``sequential=True`` pins a batch to the
per-query loop (the fallback kept for trace-style debugging and for
pinning scalar/batch parity in tests); validation is hoisted to one
pass per batch on both paths.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.ragged import RadiusHits, RaggedNeighborhoods
from repro.kdtree.stats import SearchStats

__all__ = ["KDTree"]

_SPLIT_RULES = ("widest", "cyclic")

# Sentinel index paired with +inf distances in unfilled kNN slots while
# merging; never visible to callers (k is clamped to n).
_BIG = np.iinfo(np.int64).max


def _point_sq_dist(query: np.ndarray, point: np.ndarray) -> float:
    """Squared distance accumulated coordinate by coordinate.

    The left-to-right accumulation order matches the per-coordinate
    ufunc accumulation of the batch frontier (:meth:`KDTree._sq_dists`),
    so scalar and batched traversals see bit-identical bounds and
    candidate distances.
    """
    d_sq = 0.0
    for t in query - point:
        d_sq += t * t
    return float(d_sq)


class KDTree:
    """A balanced, point-per-node KD-tree over an (N, k) point array.

    Parameters
    ----------
    points:
        The data points.  A defensive copy is stored.
    split_rule:
        ``"widest"`` splits on the dimension of largest spread (FLANN's
        default, better for anisotropic LiDAR data); ``"cyclic"`` cycles
        dimensions by depth (Bentley's original rule).
    """

    def __init__(self, points: np.ndarray, split_rule: str = "widest"):
        points = np.array(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError(f"points must be (N, k), got shape {points.shape}")
        if len(points) == 0:
            raise ValueError("cannot build a KD-tree over zero points")
        if not np.all(np.isfinite(points)):
            raise ValueError("points contain NaN or infinity")
        if split_rule not in _SPLIT_RULES:
            raise ValueError(f"split_rule must be one of {_SPLIT_RULES}")
        self._points = points
        self._split_rule = split_rule
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        n, ndim = self._points.shape
        point_index = np.empty(n, dtype=np.int64)
        split_dim = np.zeros(n, dtype=np.int64)
        left = np.full(n, -1, dtype=np.int64)
        right = np.full(n, -1, dtype=np.int64)
        depth = np.zeros(n, dtype=np.int64)

        next_node = 0
        # Tasks: (member indices, depth, parent node id, is_left_child).
        tasks: list[tuple[np.ndarray, int, int, bool]] = [
            (np.arange(n, dtype=np.int64), 0, -1, False)
        ]
        while tasks:
            indices, node_depth, parent, is_left = tasks.pop()
            dim = self._choose_dim(indices, node_depth, ndim)
            values = self._points[indices, dim]
            mid = (len(indices) - 1) // 2
            if len(indices) == 1:
                order = np.array([0], dtype=np.int64)
            else:
                order = np.argpartition(values, mid)
            node = next_node
            next_node += 1
            point_index[node] = indices[order[mid]]
            split_dim[node] = dim
            depth[node] = node_depth
            if parent >= 0:
                if is_left:
                    left[parent] = node
                else:
                    right[parent] = node
            left_members = indices[order[:mid]]
            right_members = indices[order[mid + 1 :]]
            if len(left_members):
                tasks.append((left_members, node_depth + 1, node, True))
            if len(right_members):
                tasks.append((right_members, node_depth + 1, node, False))

        self._point_index = point_index
        self._split_dim = split_dim
        self._left = left
        self._right = right
        self._depth = depth
        # Cache split values: each node splits at its own point's coordinate.
        self._split_value = self._points[point_index, split_dim]

    def _choose_dim(self, indices: np.ndarray, depth: int, ndim: int) -> int:
        if self._split_rule == "cyclic" or len(indices) == 1:
            return depth % ndim
        member_points = self._points[indices]
        spread = member_points.max(axis=0) - member_points.min(axis=0)
        return int(np.argmax(spread))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def n(self) -> int:
        return len(self._points)

    @property
    def ndim(self) -> int:
        return self._points.shape[1]

    @property
    def height(self) -> int:
        """Number of levels (a single-node tree has height 1)."""
        return int(self._depth.max()) + 1

    def node_point(self, node: int) -> np.ndarray:
        """The point stored at tree node ``node`` (root is node 0)."""
        return self._points[self._point_index[node]]

    def subtree_point_indices(self, node: int) -> np.ndarray:
        """All point indices stored in the subtree rooted at ``node``.

        Used by the two-stage structure to materialize leaf sets.
        """
        result: list[int] = []
        stack = [node]
        while stack:
            current = stack.pop()
            result.append(int(self._point_index[current]))
            if self._left[current] >= 0:
                stack.append(int(self._left[current]))
            if self._right[current] >= 0:
                stack.append(int(self._right[current]))
        return np.array(sorted(result), dtype=np.int64)

    def __repr__(self) -> str:
        return (
            f"KDTree(n={self.n}, ndim={self.ndim}, height={self.height}, "
            f"split_rule={self._split_rule!r})"
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _check_query(self, query: np.ndarray) -> np.ndarray:
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        if len(query) != self.ndim:
            raise ValueError(
                f"query has dimension {len(query)}, tree has {self.ndim}"
            )
        if not np.all(np.isfinite(query)):
            raise ValueError("query contains NaN or infinity")
        return query

    def _check_queries(self, queries: np.ndarray) -> np.ndarray:
        """One validation pass for a whole batch (hoisted out of the
        per-query loop; the scalar methods keep their own check)."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if queries.ndim != 2 or queries.shape[1] != self.ndim:
            raise ValueError(
                f"queries have shape {queries.shape}, tree has dimension "
                f"{self.ndim}"
            )
        if not np.all(np.isfinite(queries)):
            raise ValueError("queries contain NaN or infinity")
        return queries

    def nn(
        self, query: np.ndarray, stats: SearchStats | None = None
    ) -> tuple[int, float]:
        """Nearest neighbor: (point index, distance)."""
        return self._nn_impl(self._check_query(query), stats)

    def _nn_impl(
        self, query: np.ndarray, stats: SearchStats | None
    ) -> tuple[int, float]:
        points = self._points
        best_sq = np.inf
        best_idx = -1
        visits = pops = pruned = 0

        contrib = np.zeros(self.ndim)
        stack: list[tuple[int, float, np.ndarray]] = [(0, 0.0, contrib)]
        while stack:
            node, bound_sq, contrib = stack.pop()
            pops += 1
            if bound_sq > best_sq:
                pruned += 1
                continue
            pidx = int(self._point_index[node])
            d_sq = _point_sq_dist(query, points[pidx])
            visits += 1
            # Deterministic tie rule shared with the batch frontier:
            # the global (distance, index) lexicographic minimum.
            if d_sq < best_sq or (d_sq == best_sq and pidx < best_idx):
                best_sq = d_sq
                best_idx = pidx
            left_child = self._left[node]
            right_child = self._right[node]
            if left_child < 0 and right_child < 0:
                continue
            dim = self._split_dim[node]
            delta = query[dim] - self._split_value[node]
            if delta < 0:
                near, far = left_child, right_child
            else:
                near, far = right_child, left_child
            if far >= 0:
                far_bound = bound_sq - contrib[dim] + delta * delta
                if far_bound <= best_sq:
                    far_contrib = contrib.copy()
                    far_contrib[dim] = delta * delta
                    stack.append((int(far), far_bound, far_contrib))
                else:
                    pruned += 1
            if near >= 0:
                stack.append((int(near), bound_sq, contrib))

        if stats is not None:
            stats.nodes_visited += visits
            stats.traversal_steps += pops
            stats.pruned_subtrees += pruned
            stats.queries += 1
            stats.results_returned += 1
        return best_idx, float(np.sqrt(best_sq))

    def knn(
        self, query: np.ndarray, k: int, stats: SearchStats | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` nearest neighbors, sorted by ascending distance."""
        query = self._check_query(query)
        if k <= 0:
            raise ValueError("k must be positive")
        return self._knn_impl(query, min(k, self.n), stats)

    def _knn_impl(
        self, query: np.ndarray, k: int, stats: SearchStats | None
    ) -> tuple[np.ndarray, np.ndarray]:
        points = self._points
        # Max-heap over (distance, index) via negation: heap[0] is the
        # lexicographically largest (d_sq, idx) of the kept k, i.e. the
        # entry the next better candidate evicts.
        heap: list[tuple[float, int]] = []
        visits = pops = pruned = 0

        def bound() -> float:
            return -heap[0][0] if len(heap) == k else np.inf

        def offer(idx: int, d_sq: float) -> None:
            if len(heap) < k:
                heapq.heappush(heap, (-d_sq, -idx))
            else:
                worst_sq, worst_idx = -heap[0][0], -heap[0][1]
                if d_sq < worst_sq or (d_sq == worst_sq and idx < worst_idx):
                    heapq.heapreplace(heap, (-d_sq, -idx))

        contrib = np.zeros(self.ndim)
        stack: list[tuple[int, float, np.ndarray]] = [(0, 0.0, contrib)]
        while stack:
            node, bound_sq, contrib = stack.pop()
            pops += 1
            if bound_sq > bound():
                pruned += 1
                continue
            pidx = int(self._point_index[node])
            d_sq = _point_sq_dist(query, points[pidx])
            visits += 1
            offer(pidx, d_sq)
            left_child = self._left[node]
            right_child = self._right[node]
            if left_child < 0 and right_child < 0:
                continue
            dim = self._split_dim[node]
            delta = query[dim] - self._split_value[node]
            if delta < 0:
                near, far = left_child, right_child
            else:
                near, far = right_child, left_child
            if far >= 0:
                far_bound = bound_sq - contrib[dim] + delta * delta
                if far_bound <= bound():
                    far_contrib = contrib.copy()
                    far_contrib[dim] = delta * delta
                    stack.append((int(far), far_bound, far_contrib))
                else:
                    pruned += 1
            if near >= 0:
                stack.append((int(near), bound_sq, contrib))

        entries = sorted((-neg_sq, -neg_idx) for neg_sq, neg_idx in heap)
        indices = np.array([idx for _, idx in entries], dtype=np.int64)
        dists = np.sqrt(np.array([sq for sq, _ in entries]))
        if stats is not None:
            stats.nodes_visited += visits
            stats.traversal_steps += pops
            stats.pruned_subtrees += pruned
            stats.queries += 1
            stats.results_returned += len(indices)
        return indices, dists

    def radius(
        self,
        query: np.ndarray,
        r: float,
        stats: SearchStats | None = None,
        sort: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """All neighbors within distance ``r``: (indices, distances).

        Results come back in ascending index order (ascending distance
        with ``sort=True``), the deterministic order shared with the
        batch frontier.
        """
        query = self._check_query(query)
        if r < 0:
            raise ValueError("radius must be non-negative")
        return self._radius_impl(query, r, stats, sort)

    def _radius_impl(
        self,
        query: np.ndarray,
        r: float,
        stats: SearchStats | None,
        sort: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        points = self._points
        r_sq = r * r
        found: list[tuple[int, float]] = []
        visits = pops = pruned = 0

        contrib = np.zeros(self.ndim)
        stack: list[tuple[int, float, np.ndarray]] = [(0, 0.0, contrib)]
        while stack:
            node, bound_sq, contrib = stack.pop()
            pops += 1
            if bound_sq > r_sq:
                pruned += 1
                continue
            pidx = int(self._point_index[node])
            d_sq = _point_sq_dist(query, points[pidx])
            visits += 1
            if d_sq <= r_sq:
                found.append((pidx, d_sq))
            left_child = self._left[node]
            right_child = self._right[node]
            if left_child < 0 and right_child < 0:
                continue
            dim = self._split_dim[node]
            delta = query[dim] - self._split_value[node]
            if delta < 0:
                near, far = left_child, right_child
            else:
                near, far = right_child, left_child
            if far >= 0:
                far_bound = bound_sq - contrib[dim] + delta * delta
                if far_bound <= r_sq:
                    far_contrib = contrib.copy()
                    far_contrib[dim] = delta * delta
                    stack.append((int(far), far_bound, far_contrib))
                else:
                    pruned += 1
            if near >= 0:
                stack.append((int(near), bound_sq, contrib))

        if stats is not None:
            stats.nodes_visited += visits
            stats.traversal_steps += pops
            stats.pruned_subtrees += pruned
            stats.queries += 1
            stats.results_returned += len(found)
        if not found:
            return np.empty(0, dtype=np.int64), np.empty(0)
        indices = np.array([idx for idx, _ in found], dtype=np.int64)
        sq_found = np.array([sq for _, sq in found])
        # Canonical ascending-index order, shared with the batch path
        # (which collects hits round by round, not in DFS order).
        order = np.argsort(indices, kind="stable")
        indices = indices[order]
        dists = np.sqrt(sq_found[order])
        if sort:
            order = np.argsort(dists, kind="stable")
            return indices[order], dists[order]
        return indices, dists

    # ------------------------------------------------------------------
    # Batch queries: the level-synchronous frontier sweep (see module
    # docstring).  ``sequential=True`` pins the per-query loop fallback.
    # ------------------------------------------------------------------

    def nn_batch(
        self,
        queries: np.ndarray,
        stats: SearchStats | None = None,
        sequential: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Nearest neighbor for every row of ``queries``."""
        queries = self._check_queries(queries)
        if sequential:
            indices = np.empty(len(queries), dtype=np.int64)
            dists = np.empty(len(queries))
            for i, query in enumerate(queries):
                indices[i], dists[i] = self._nn_impl(query, stats)
            return indices, dists
        return self._nn_batch_fast(queries, stats)

    def knn_batch(
        self,
        queries: np.ndarray,
        k: int,
        stats: SearchStats | None = None,
        sequential: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """kNN for every row of ``queries``: (Q, min(k, n)) arrays."""
        queries = self._check_queries(queries)
        if k <= 0:
            raise ValueError("k must be positive")
        k = min(k, self.n)
        if sequential:
            indices = np.empty((len(queries), k), dtype=np.int64)
            dists = np.empty((len(queries), k))
            for i, query in enumerate(queries):
                indices[i], dists[i] = self._knn_impl(query, k, stats)
            return indices, dists
        return self._knn_batch_fast(queries, k, stats)

    def radius_batch(
        self,
        queries: np.ndarray,
        r: float,
        stats: SearchStats | None = None,
        sort: bool = False,
        sequential: bool = False,
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Radius search for every row of ``queries`` (ragged lists).

        Thin compatibility wrapper: slices :meth:`radius_batch_csr`'s
        flat result into per-query lists (``sequential=True`` pins the
        pre-rebuild per-query loop instead).
        """
        if sequential:
            queries = self._check_queries(queries)
            if r < 0:
                raise ValueError("radius must be non-negative")
            all_indices, all_dists = [], []
            for query in queries:
                indices, dists = self._radius_impl(query, r, stats, sort)
                all_indices.append(indices)
                all_dists.append(dists)
            return all_indices, all_dists
        return self.radius_batch_csr(queries, r, stats, sort=sort).to_list_pair()

    def radius_batch_csr(
        self,
        queries: np.ndarray,
        r: float,
        stats: SearchStats | None = None,
        sort: bool = False,
    ) -> RaggedNeighborhoods:
        """Radius search returning the CSR result natively.

        The frontier sweep already accumulates its hits flat (in a
        :class:`~repro.core.ragged.RadiusHits`); this entry point
        returns them without shredding into per-query lists, with the
        accepted squared distances as ``sq_distances``.  Bit-identical
        content to :meth:`radius_batch` — same ascending-index order,
        same ``sort=True`` stable distance sort (applied once via
        :func:`repro.core.ragged.segment_sort_order`).
        """
        queries = self._check_queries(queries)
        if r < 0:
            raise ValueError("radius must be non-negative")
        result = self._radius_batch_fast(queries, r, stats)
        if sort:
            result = result.sorted_by_distance()
        return result

    # ------------------------------------------------------------------
    # Frontier machinery
    # ------------------------------------------------------------------

    def _sq_dists(self, query_rows: np.ndarray, node_pts: np.ndarray):
        """Per-coordinate squared distances (same accumulation order as
        :func:`_point_sq_dist`, hence bit-identical to the scalar path)."""
        t = query_rows[:, 0] - node_pts[:, 0]
        d_sq = t * t
        for j in range(1, self.ndim):
            t = query_rows[:, j] - node_pts[:, j]
            d_sq += t * t
        return d_sq

    def _descend(self, queries: np.ndarray):
        """Pure near-path descent of every query (no backtracking).

        Yields ``(query rows, node ids, squared distances)`` per level —
        the candidates the scalar DFS would evaluate on its first dive.
        Used to seed tight nn/knn bounds before the frontier sweep; the
        frontier re-visits (and charges) these nodes, so the descent
        itself is uncharged scheduling work.
        """
        node = np.zeros(len(queries), dtype=np.int64)
        alive = np.arange(len(queries), dtype=np.int64)
        while len(alive):
            current = node[alive]
            pidx = self._point_index[current]
            d_sq = self._sq_dists(queries[alive], self._points[pidx])
            yield alive, pidx, d_sq
            dim = self._split_dim[current]
            delta = queries[alive, dim] - self._split_value[current]
            child = np.where(delta < 0, self._left[current], self._right[current])
            descend = child >= 0
            node[alive[descend]] = child[descend]
            alive = alive[descend]

    def _nn_batch_fast(
        self, queries: np.ndarray, stats: SearchStats | None
    ) -> tuple[np.ndarray, np.ndarray]:
        n_queries, ndim = queries.shape
        best_sq = np.full(n_queries, np.inf)
        best_idx = np.full(n_queries, -1, dtype=np.int64)
        if n_queries == 0:
            return best_idx, np.full(n_queries, np.inf)
        visits = pops = pruned = 0

        def lex_update(q, d_sq, pidx):
            """Fold (query, distance, index) candidates into the bests by
            the (distance, index) lexicographic rule."""
            better = (d_sq < best_sq[q]) | (
                (d_sq == best_sq[q]) & (pidx < best_idx[q])
            )
            if not np.any(better):
                return
            bq, bsq, bidx = q[better], d_sq[better], pidx[better]
            # A query can meet several nodes in one round; reduce its
            # candidates to the lexicographic minimum before updating.
            sel = np.lexsort((bidx, bsq, bq))
            bq, bsq, bidx = bq[sel], bsq[sel], bidx[sel]
            first = np.r_[True, bq[1:] != bq[:-1]]
            cq, csq, cidx = bq[first], bsq[first], bidx[first]
            win = (csq < best_sq[cq]) | (
                (csq == best_sq[cq]) & (cidx < best_idx[cq])
            )
            best_sq[cq[win]] = csq[win]
            best_idx[cq[win]] = cidx[win]

        # Phase 1: seed bounds from the near-path descent.
        for rows, pidx, d_sq in self._descend(queries):
            lex_update(rows, d_sq, pidx)

        # Phase 2: the frontier sweep, pruned against the running bests
        # exactly as the scalar recursion (push-time and pop-time checks).
        refs = np.zeros(n_queries, dtype=np.int64)
        qidx = np.arange(n_queries, dtype=np.int64)
        bound = np.zeros(n_queries)
        contrib = np.zeros((n_queries, ndim))
        while len(refs):
            pops += len(refs)
            alive = bound <= best_sq[qidx]
            pruned += int(np.count_nonzero(~alive))
            refs_i = refs[alive]
            q_i = qidx[alive]
            b_i = bound[alive]
            c_i = contrib[alive]
            if len(refs_i) == 0:
                break
            visits += len(refs_i)
            pidx = self._point_index[refs_i]
            d_sq = self._sq_dists(queries[q_i], self._points[pidx])
            lex_update(q_i, d_sq, pidx)
            dim = self._split_dim[refs_i]
            delta = queries[q_i, dim] - self._split_value[refs_i]
            left = self._left[refs_i]
            right = self._right[refs_i]
            goes_left = delta < 0
            near = np.where(goes_left, left, right)
            far = np.where(goes_left, right, left)
            dd = delta * delta
            span = np.arange(len(refs_i))
            far_bound = b_i - c_i[span, dim] + dd
            far_contrib = c_i.copy()
            far_contrib[span, dim] = dd
            admit_far = (far >= 0) & (far_bound <= best_sq[q_i])
            pruned += int(np.count_nonzero((far >= 0) & ~admit_far))
            has_near = near >= 0
            refs = np.concatenate([far[admit_far], near[has_near]])
            qidx = np.concatenate([q_i[admit_far], q_i[has_near]])
            bound = np.concatenate([far_bound[admit_far], b_i[has_near]])
            contrib = np.concatenate([far_contrib[admit_far], c_i[has_near]])

        if stats is not None:
            stats.nodes_visited += visits
            stats.traversal_steps += pops
            stats.pruned_subtrees += pruned
            stats.queries += n_queries
            stats.results_returned += n_queries
        return best_idx, np.sqrt(best_sq)

    def _merge_topk(
        self,
        best_sq: np.ndarray,
        best_idx: np.ndarray,
        cq: np.ndarray,
        csq: np.ndarray,
        cidx: np.ndarray,
        k: int,
    ) -> None:
        """Merge flat (query, sq, idx) candidates into (Q, k) bests kept
        sorted by the (distance, index) lexicographic rule.

        Candidates may duplicate entries already in the bests (the
        frontier re-visits the seeded near path); duplicates carry
        identical (sq, idx) keys, land adjacent after the row sort, and
        are compacted out before truncation to k.
        """
        order = np.lexsort((cidx, csq, cq))
        cq, csq, cidx = cq[order], csq[order], cidx[order]
        uq, starts = np.unique(cq, return_index=True)
        counts = np.diff(np.r_[starts, len(cq)])
        m = int(counts.max())
        gid = np.repeat(np.arange(len(uq)), counts)
        pos = np.arange(len(cq)) - np.repeat(starts, counts)
        cand_sq = np.full((len(uq), m), np.inf)
        cand_idx = np.full((len(uq), m), _BIG, dtype=np.int64)
        cand_sq[gid, pos] = csq
        cand_idx[gid, pos] = cidx
        merged_sq = np.concatenate([best_sq[uq], cand_sq], axis=1)
        merged_idx = np.concatenate([best_idx[uq], cand_idx], axis=1)
        sel = np.lexsort((merged_idx, merged_sq))
        merged_sq = np.take_along_axis(merged_sq, sel, axis=1)
        merged_idx = np.take_along_axis(merged_idx, sel, axis=1)
        dup = (merged_sq[:, 1:] == merged_sq[:, :-1]) & (
            merged_idx[:, 1:] == merged_idx[:, :-1]
        )
        if np.any(dup):
            merged_sq[:, 1:][dup] = np.inf
            merged_idx[:, 1:][dup] = _BIG
            sel = np.lexsort((merged_idx, merged_sq))
            merged_sq = np.take_along_axis(merged_sq, sel, axis=1)
            merged_idx = np.take_along_axis(merged_idx, sel, axis=1)
        best_sq[uq] = merged_sq[:, :k]
        best_idx[uq] = merged_idx[:, :k]

    def _knn_batch_fast(
        self, queries: np.ndarray, k: int, stats: SearchStats | None
    ) -> tuple[np.ndarray, np.ndarray]:
        n_queries, ndim = queries.shape
        best_sq = np.full((n_queries, k), np.inf)
        best_idx = np.full((n_queries, k), _BIG, dtype=np.int64)
        if n_queries == 0:
            return best_idx, best_sq
        visits = pops = pruned = 0

        # Phase 1: seed the per-query top-k from the near-path descent
        # (one merge over all path candidates).
        path_q: list[np.ndarray] = []
        path_sq: list[np.ndarray] = []
        path_idx: list[np.ndarray] = []
        for rows, pidx, d_sq in self._descend(queries):
            path_q.append(rows)
            path_idx.append(pidx)
            path_sq.append(d_sq)
        self._merge_topk(
            best_sq,
            best_idx,
            np.concatenate(path_q),
            np.concatenate(path_sq),
            np.concatenate(path_idx),
            k,
        )

        # Phase 2: frontier sweep pruned against each query's kth-best.
        refs = np.zeros(n_queries, dtype=np.int64)
        qidx = np.arange(n_queries, dtype=np.int64)
        bound = np.zeros(n_queries)
        contrib = np.zeros((n_queries, ndim))
        while len(refs):
            pops += len(refs)
            alive = bound <= best_sq[qidx, k - 1]
            pruned += int(np.count_nonzero(~alive))
            refs_i = refs[alive]
            q_i = qidx[alive]
            b_i = bound[alive]
            c_i = contrib[alive]
            if len(refs_i) == 0:
                break
            visits += len(refs_i)
            pidx = self._point_index[refs_i]
            d_sq = self._sq_dists(queries[q_i], self._points[pidx])
            cand = d_sq <= best_sq[q_i, k - 1]
            if np.any(cand):
                self._merge_topk(
                    best_sq, best_idx, q_i[cand], d_sq[cand], pidx[cand], k
                )
            dim = self._split_dim[refs_i]
            delta = queries[q_i, dim] - self._split_value[refs_i]
            left = self._left[refs_i]
            right = self._right[refs_i]
            goes_left = delta < 0
            near = np.where(goes_left, left, right)
            far = np.where(goes_left, right, left)
            dd = delta * delta
            span = np.arange(len(refs_i))
            far_bound = b_i - c_i[span, dim] + dd
            far_contrib = c_i.copy()
            far_contrib[span, dim] = dd
            admit_far = (far >= 0) & (far_bound <= best_sq[q_i, k - 1])
            pruned += int(np.count_nonzero((far >= 0) & ~admit_far))
            has_near = near >= 0
            refs = np.concatenate([far[admit_far], near[has_near]])
            qidx = np.concatenate([q_i[admit_far], q_i[has_near]])
            bound = np.concatenate([far_bound[admit_far], b_i[has_near]])
            contrib = np.concatenate([far_contrib[admit_far], c_i[has_near]])

        if stats is not None:
            stats.nodes_visited += visits
            stats.traversal_steps += pops
            stats.pruned_subtrees += pruned
            stats.queries += n_queries
            stats.results_returned += best_idx.size
        return best_idx, np.sqrt(best_sq)

    def _radius_batch_fast(
        self,
        queries: np.ndarray,
        r: float,
        stats: SearchStats | None,
    ) -> RaggedNeighborhoods:
        n_queries, ndim = queries.shape
        r_sq = r * r
        hits = RadiusHits(n_queries, self.n, r)
        visits = pruned = 0

        # The radius bound never tightens, so (unlike nn) pushes are
        # pre-filtered and every frontier pair is evaluated — the sweep
        # visits exactly the (node, query) pairs of the scalar loop and
        # the work counters match it exactly.
        if n_queries:
            refs = np.zeros(n_queries, dtype=np.int64)
            qidx = np.arange(n_queries, dtype=np.int64)
            bound = np.zeros(n_queries)
            contrib = np.zeros((n_queries, ndim))
            while len(refs):
                visits += len(refs)
                pidx = self._point_index[refs]
                d_sq = self._sq_dists(queries[qidx], self._points[pidx])
                hits.add(qidx, pidx, d_sq)
                dim = self._split_dim[refs]
                delta = queries[qidx, dim] - self._split_value[refs]
                left = self._left[refs]
                right = self._right[refs]
                goes_left = delta < 0
                near = np.where(goes_left, left, right)
                far = np.where(goes_left, right, left)
                dd = delta * delta
                span = np.arange(len(refs))
                far_bound = bound - contrib[span, dim] + dd
                far_contrib = contrib.copy()
                far_contrib[span, dim] = dd
                admit_far = (far >= 0) & (far_bound <= r_sq)
                pruned += int(np.count_nonzero((far >= 0) & ~admit_far))
                has_near = near >= 0
                refs_new = np.concatenate([far[admit_far], near[has_near]])
                qidx_new = np.concatenate([qidx[admit_far], qidx[has_near]])
                bound = np.concatenate([far_bound[admit_far], bound[has_near]])
                contrib = np.concatenate(
                    [far_contrib[admit_far], contrib[has_near]]
                )
                refs, qidx = refs_new, qidx_new

        result = hits.to_csr()
        if stats is not None:
            stats.nodes_visited += visits
            stats.traversal_steps += visits
            stats.pruned_subtrees += pruned
            stats.queries += n_queries
            stats.results_returned += result.n_entries
        return result
