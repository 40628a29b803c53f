"""Two-stage KD-tree (paper Sec. 4.1, Fig. 5b).

The two-stage KD-tree splits the canonical KD-tree into a *top-tree* —
identical to the first ``top_height`` levels of the classic structure —
and *unordered leaf sets*: the members of each subtree rooted just below
the top-tree, stored flat with no spatial ordering.  Searching traverses
the top-tree with normal pruning, then exhaustively (and, in hardware,
in parallel) scans each reached leaf set.

The structure trades redundant work for parallelism: a shorter top-tree
means larger leaf sets, more brute-force work (Fig. 6), but more
node-level parallelism for the accelerator back-end.  At
``top_height = 0`` search degenerates to a full brute-force scan; at
``top_height >= log2(n)`` it matches the canonical tree.

Leaf layout and scans
---------------------
Leaf scans are vectorized with numpy — the software form of the
back-end's data-parallel processing-element array.  Every leaf set is
padded to the largest one, ``L`` slots: ``_leaf_orig`` holds each set's
original point indices in *ascending* order, ``(n_leaves, L)``, and
``_leaf_points`` is the matching coordinate-major ``(k, n_leaves, L)``
copy of the points, +inf in the padding slots.  A padding slot is +inf
away from every query, so it never wins a nearest-neighbor scan; the
single-query :meth:`TwoStageKDTree.scan_leaf` and the radius block scan
read only a set's first ``count`` slots.  Every scan sums with one
kernel, :func:`_sum_squares`: each coordinate row of differences —
``(c,)`` for one query, ``(m, c)`` for a block of ``m`` queries against
one set, ``(m, L)`` for ``m`` (query, leaf) pairs — is squared whole,
and the terms are summed in a fixed order, the order numpy's
``einsum("ij,ij->i")`` used on x86-64 builds (two unfused 128-bit
lanes): even coordinates in one lane, odd ones in the other, then the
two lanes, so in 3-D ``(dx² + dz²) + dy²``.  Keeping that order keeps
every leaf distance, and hence every result and golden, bit-identical
to the einsum scan this kernel replaced; ``tests/core/test_twostage.py``
pins it.  Top-tree node distances accumulate left to right
(:func:`_point_sq_dist`) on every path.

Batch queries
-------------
Callers query in batches.  :meth:`TwoStageKDTree.nn_batch` and
:meth:`TwoStageKDTree.radius_batch_csr` mirror the accelerator's
front-end/back-end split: all queries go through the top-tree together,
as vectorized ``(node, query)`` arrays advanced one depth per round, and
the leaf sets they reach are scanned in bulk.  Each batch is validated
whole before any work (:func:`repro.kdtree._validate.check_batch`).
Results are bit-identical to the per-query depth-first search
(:meth:`TwoStageKDTree.nn`, :meth:`TwoStageKDTree.radius`), which stays
as the approximate search's traversal and as the reference the lockstep
traces are pinned against: ties resolve to the lowest point index and
radius results come back in ascending index order on every path.

A radius batch sweeps a frontier of ``(node, query, bound, contrib)``
entries and scans each reached leaf set once against every query that
arrived at it, grouped by leaf with the block kernel.  Radius pruning
does not depend on earlier scans, so its counters equal the depth-first
search's.  Hits are packed into CSR by :class:`repro.core.ragged.RadiusHits`.

A nearest-neighbor batch is built around each query's *home path*, its
descent from the root to its home leaf without backtracking (the
hardware's split-tree scheduling):

1. Every query descends its home path, which is recorded level by
   level, and all home leaves are scanned first to seed tight pruning
   bounds.
2. The top-tree is swept one depth per round.  The home path is
   replayed as dense per-query arrays: a home-path node is reached at
   bound 0, so it is always visited; it folds in its node point and
   pushes its far sibling with bound ``0.0 - 0.0 + δ²``.  Only off-path
   entries enter the compacted frontier, pruned against the bests as of
   the round's start.
3. The leaf round first prunes the off-path leaf entries against each
   query's current best (bests only shrink, so a leaf pruned now stays
   pruned), then scans the rest in ascending leaf order per query, each
   re-checked against the query's freshest best.

Its leaf scans go through one ``(query, leaf)``-pair kernel over the
padded layout, which gathers fixed chunks of leaf slots (a few hundred
pairs at ICP's leaf sizes).  Members ascend and the padding trails
them, so a pair's ``argmin`` (first occurrence of the minimum) is the
set's lowest-index nearest member.  Its bounds tighten in a different
order than a depth-first search's, so its work counters differ from
that search's; ``tests/core/test_twostage.py::TestNNBatchCounters``
pins them.

Anchored NN batches
-------------------
ICP queries one tree once per iteration with its source points moved
only slightly, so most rows keep their nearest neighbor.
:meth:`TwoStageKDTree.nn_batch_anchored` proves that per row without a
search.  A row's :class:`NNAnchor` entry holds the query ``q_a`` of its
last real search, the nearest neighbor ``p`` found there and a lower
bound ``r`` on the distance from ``q_a`` to every other point.  By the
triangle inequality every other point is at least ``r - |q′ - q_a|``
from the row's next query ``q′``, so ``p`` is still its unique nearest
neighbor when

    |q′ - p| + |q′ - q_a| + τ < r.

Rounding in each distance that the certificate and the search compare
is relative to that distance, and where a row comes close to failing
those distances are at most about ``r``, so the margin
``τ = 2**-30 r + 1e-100`` covers it with room to spare (the constant
term keeps the squares involved clear of the subnormal range).  Rows
that pass keep ``p``; the rest run the home-path schedule and are
re-anchored at ``q′``, while a certified row keeps its old anchor.
``r`` is a by-product of that schedule, which visits and prunes exactly
what it does unanchored: it is the smallest of every candidate distance
that lost (a candidate losing a fold, a best that a later winner
displaced, the second-nearest member of a leaf that took the lead) and
the bound of every subtree or leaf the schedule pruned.  A one-point
tree has ``r = +inf``; a point with a copy gets ``r`` equal to its own
distance and never certifies.

*The order rule.*  A certified row's squared distance is recomputed the
way the search sums that point: a leaf-set member in the leaf kernel's
lane order, ``(dx² + dz²) + dy²``, a top-tree node point left to right,
``(dx² + dy²) + dz²``.  Its distance is then bit-identical to a fresh
search's; one lane order for every point would move the last bit of
some node points' distances.  Certified rows charge ``queries``,
``reused_queries`` and ``results_returned`` but no traversal work, and
each batch that certifies any row counts one ``cache_hits``.

Lockstep traces
---------------
Passing ``trace=`` runs a *lockstep* schedule instead, which records the
exact per-query traversal the accelerator model replays.  Every query
keeps its own depth-first stack, as each hardware Recursion Unit keeps
its query stack (paper Sec. 5.2), and each round pops one entry from
every non-empty stack.  The round's unpruned leaf pops are scanned by
the pair kernel (NN) or grouped by leaf with the block kernel (radius);
its visited top-tree nodes are expanded together by the node arithmetic
the frontier sweeps use (:meth:`TwoStageKDTree._expand`), far child
pushed before near.  A query's pruning bound depends only on its own
earlier pops, never on another query's, so every query visits, prunes
and scans exactly what the depth-first :meth:`TwoStageKDTree.nn` /
:meth:`TwoStageKDTree.radius` search does, in the same order: its trace,
its result and its :class:`~repro.kdtree.stats.SearchStats` counts
equal those of that search.  :meth:`TwoStageKDTree.knn_batch` remains a
tight loop over the depth-first :meth:`TwoStageKDTree.knn` — the
bounded-heap eviction order of kNN is inherently sequential, and kNN is
not one of the two query kinds (NN, radius) the paper's workloads use.
"""

from __future__ import annotations

import heapq
import math
from typing import NamedTuple

import numpy as np

from repro.core.ragged import RadiusHits, RaggedNeighborhoods
from repro.core.trace import LeafVisitRecord, QueryTrace
from repro.kdtree._validate import check_batch
from repro.kdtree.stats import SearchStats

__all__ = ["NNAnchor", "TwoStageKDTree"]

# Child-slot encoding in the flat node arrays: values >= 0 are top-tree
# node ids, NO_CHILD marks an absent child, and values <= LEAF_BASE encode
# leaf-set ids as LEAF_BASE - leaf_id.
_NO_CHILD = -1
_LEAF_BASE = -2

# Leaf slots the (query, leaf)-pair kernel gathers at a time: a few
# hundred pairs at ICP's leaf sizes, with cache-sized temporaries.
_PAIR_SLOTS = 1 << 14


def _encode_leaf(leaf_id: int) -> int:
    return _LEAF_BASE - leaf_id


def _decode_leaf(code: int) -> int:
    return _LEAF_BASE - code


def _point_sq_dist(query: np.ndarray, point: np.ndarray) -> float:
    """Squared distance accumulated coordinate by coordinate.

    The left-to-right accumulation order matches the per-coordinate
    ufunc accumulation of the batch frontier, so the depth-first search
    and the batches see bit-identical bounds and candidate distances.
    """
    d_sq = 0.0
    for t in query - point:
        d_sq += t * t
    return float(d_sq)


def _lane_orders(ndim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Coordinates in the order each of einsum's two lanes adds them.

    einsum's contiguous dot-product loop keeps two lanes: lane 0 takes
    the even coordinates, lane 1 the odd ones.  Eight coordinates at a
    time it adds four lane-steps last-to-first; the tail is added in
    order.  The result is lane 0 + lane 1.
    """
    even: list[int] = []
    odd: list[int] = []
    base = 0
    while ndim - base >= 8:
        even += [base + 6, base + 4, base + 2, base]
        odd += [base + 7, base + 5, base + 3, base + 1]
        base += 8
    even += range(base, ndim, 2)
    odd += range(base + 1, ndim, 2)
    return tuple(even), tuple(odd)


def _sum_squares(diff: np.ndarray, lanes) -> np.ndarray:
    """Squared distances from a coordinate-major stack of differences.

    ``diff[j]`` holds coordinate ``j``'s point-minus-query differences —
    ``(c,)`` for one query, ``(m, c)`` for a block — and is overwritten:
    the terms are squared in place and summed in ``lanes`` order
    (:func:`_lane_orders`), bit-identical to the einsum scan.  Returns
    the ``diff[lanes[0][0]]`` row, which ends up holding the sums.
    """
    np.multiply(diff, diff, out=diff)
    even, odd = lanes
    total = diff[even[0]]
    for j in even[1:]:
        total += diff[j]
    if odd:
        lane = diff[odd[0]]
        for j in odd[1:]:
            lane += diff[j]
        total += lane
    return total


def _first_of_runs(keys: np.ndarray) -> np.ndarray:
    """Mask of the entries of sorted ``keys`` that start a run of equal keys."""
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _fold_nearest(rows, sq, idx, best_sq, best_idx, runner_ups=None) -> np.ndarray:
    """Fold one candidate per row into the running NN bests in place.

    The shared tie rule: a candidate wins on a smaller squared distance,
    or an equal one with a lower point index.  ``rows`` are distinct.
    Returns the mask of candidates that won.  ``runner_ups`` receives
    what loses: each losing candidate and each best a winner displaces.
    """
    current = best_sq[rows]
    better = (sq < current) | ((sq == current) & (idx < best_idx[rows]))
    if runner_ups is not None:
        runner_ups.add(rows, np.where(better, current, sq))
    best_sq[rows[better]] = sq[better]
    best_idx[rows[better]] = idx[better]
    return better


class _RunnerUps:
    """Per-row lower bound r on the distance to every point but the NN.

    An NN batch given runner-ups adds every squared distance it learns
    about a point that is not, or no longer, a row's best: each candidate
    that loses a fold, each best a winner displaces, a leading leaf's
    second-nearest member, and the bound of every pruned subtree or leaf
    (a lower bound on every point inside).  The row's final NN is never
    added, so the minimum over a row's entries is r squared.  Recording
    reads values the schedule computes anyway and changes nothing it
    visits or prunes.
    """

    def __init__(self):
        self._rows: list[np.ndarray] = []
        self._sq: list[np.ndarray] = []

    def add(self, rows: np.ndarray, sq: np.ndarray) -> None:
        self._rows.append(rows)
        self._sq.append(sq)

    def bounds(self, n_rows: int, n_points: int) -> np.ndarray:
        """r per row: +inf when the tree has no other point."""
        r_sq = np.full(n_rows, np.inf)
        if self._rows:
            np.minimum.at(r_sq, np.concatenate(self._rows), np.concatenate(self._sq))
        if n_points > 1:
            # A square past the float range overflowed to +inf; the
            # distance it stands for is at least the largest finite one.
            np.minimum(r_sq, np.finfo(np.float64).max, out=r_sq)
        return np.sqrt(r_sq)


class _Nearest:
    """The depth-first NN search's result: the (distance, index)
    lexicographic minimum, the tie rule shared with the batch paths."""

    def __init__(self):
        self.sq = np.inf
        self.idx = -1

    def bound(self) -> float:
        return self.sq

    def point(self, idx: int, d_sq: float) -> None:
        if d_sq < self.sq or (d_sq == self.sq and idx < self.idx):
            self.sq = d_sq
            self.idx = idx

    def leaf(self, indices, sq, visit) -> None:
        if len(indices):
            jv = float(np.min(sq))
            if jv <= self.sq:
                self.point(int(np.min(np.asarray(indices)[sq == jv])), jv)


class _NearestK:
    """The depth-first kNN search's result: a bounded max-heap.

    Both fields are negated, so ``heap[0]`` is the lexicographically
    largest (d_sq, idx), the element the shared tie rule evicts first.
    """

    def __init__(self, k: int):
        self.k = k
        self.heap: list[tuple[float, int]] = []

    def bound(self) -> float:
        return -self.heap[0][0] if len(self.heap) == self.k else np.inf

    def point(self, idx: int, d_sq: float) -> None:
        heap = self.heap
        if len(heap) < self.k:
            heapq.heappush(heap, (-d_sq, -idx))
        elif (d_sq, idx) < (-heap[0][0], -heap[0][1]):
            heapq.heapreplace(heap, (-d_sq, -idx))

    def leaf(self, indices, sq, visit) -> None:
        for idx, d_sq in zip(indices, sq):
            self.point(int(idx), float(d_sq))


class _InRadius:
    """The depth-first radius search's result: every hit within r."""

    def __init__(self, r_sq: float):
        self.r_sq = r_sq
        self.idx: list[np.ndarray] = []
        self.sq: list[np.ndarray] = []

    def bound(self) -> float:
        return self.r_sq

    def point(self, idx: int, d_sq: float) -> None:
        if d_sq <= self.r_sq:
            self.idx.append(np.array([idx], dtype=np.int64))
            self.sq.append(np.array([d_sq]))

    def leaf(self, indices, sq, visit) -> None:
        mask = sq <= self.r_sq
        if np.any(mask):
            self.idx.append(np.asarray(indices)[mask])
            self.sq.append(np.asarray(sq)[mask])
        visit.result_size = int(np.count_nonzero(mask))


# The certificate's margin τ (see the module docstring).  Rounding in the
# distances that decide a row is relative to them, and they are at most
# about r, so τ = 2**-30 r (some four million ulps of r) covers it; the
# 1e-100 keeps the squares it relies on far from the subnormal range.
_CERT_RELATIVE = 2.0**-30
_CERT_ABSOLUTE = 1e-100


class NNAnchor(NamedTuple):
    """The per-row state an anchored NN batch hands to the next one.

    Row ``i`` was last searched at ``queries[i]`` on ``tree``; its
    nearest neighbor there is point ``indices[i]``, and every other point
    of the tree is at least ``bounds[i]`` (r) away from ``queries[i]``.
    See :meth:`TwoStageKDTree.nn_batch_anchored`.
    """

    tree: "TwoStageKDTree"
    queries: np.ndarray
    indices: np.ndarray
    bounds: np.ndarray


def _query_traces(visits, bypassed, pushes, results, log) -> list[QueryTrace]:
    """One :class:`QueryTrace` per query from the lockstep traversal.

    ``visits``, ``bypassed``, ``pushes`` and ``results`` are per-query
    counts; ``log`` holds one entry per round for the round's leaf pops:
    ``(query, leaf id, scanned, pruned, result size)`` arrays.  A query
    pops at most one entry a round, so a stable sort by query puts each
    query's leaf visits in pop order.
    """
    if log:
        rows, leaf_ids, scanned, pruned, sizes = map(np.concatenate, zip(*log))
    else:
        rows = leaf_ids = scanned = pruned = sizes = np.empty(0, dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    # Positional arguments in field order: object creation dominates the
    # cost of this pass.
    visit_records = [
        LeafVisitRecord(leaf_id, n_scanned, False, 0, False, was_pruned, size)
        for leaf_id, n_scanned, was_pruned, size in zip(
            leaf_ids[order].tolist(),
            scanned[order].tolist(),
            pruned[order].astype(bool).tolist(),
            sizes[order].tolist(),
        )
    ]
    ends = np.cumsum(np.bincount(rows, minlength=len(visits))).tolist()
    return [
        QueryTrace(n_visits, n_bypassed, n_pushes, visit_records[start:end], n_results)
        for n_visits, n_bypassed, n_pushes, start, end, n_results in zip(
            visits.tolist(),
            bypassed.tolist(),
            pushes.tolist(),
            [0] + ends[:-1],
            ends,
            results.tolist(),
        )
    ]


class TwoStageKDTree:
    """Top-tree over median splits + unordered leaf sets.

    Parameters
    ----------
    points:
        (N, k) data array (copied).
    top_height:
        Number of top-tree levels.  Nodes exist at depths
        ``0 .. top_height - 1``; every subtree that would start at depth
        ``top_height`` is flattened into an unordered leaf set.  ``0``
        collapses the structure to one big brute-force set.
    split_rule:
        As for :class:`repro.kdtree.KDTree`.
    """

    def __init__(
        self,
        points: np.ndarray,
        top_height: int,
        split_rule: str = "widest",
    ):
        points = np.array(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError(f"points must be (N, k), got shape {points.shape}")
        if len(points) == 0:
            raise ValueError("cannot build a two-stage KD-tree over zero points")
        if not np.all(np.isfinite(points)):
            raise ValueError("points contain NaN or infinity")
        if top_height < 0:
            raise ValueError("top_height must be >= 0")
        if split_rule not in ("widest", "cyclic"):
            raise ValueError("split_rule must be 'widest' or 'cyclic'")
        self._points = points
        self._top_height = int(top_height)
        self._split_rule = split_rule
        self._build()

    @classmethod
    def from_leaf_size(
        cls,
        points: np.ndarray,
        leaf_size: int,
        split_rule: str = "widest",
    ) -> "TwoStageKDTree":
        """Build with the top-tree height that yields ~``leaf_size`` sets.

        Leaf-set size is approximately ``n / 2**top_height`` (paper
        Sec. 4.1: leaf-set size 1 is the classic KD-tree), so
        ``top_height = round(log2(n / leaf_size))``.
        """
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        n = len(np.atleast_2d(points))
        height = max(0, round(math.log2(max(n, 1) / leaf_size)))
        return cls(points, top_height=height, split_rule=split_rule)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        n, ndim = self._points.shape
        # Coordinate-major points: split statistics and the leaf copy
        # read contiguous coordinate rows.
        points_t = np.ascontiguousarray(self._points.T)
        node_point: list[int] = []
        node_dim: list[int] = []
        node_value: list[float] = []
        node_left: list[int] = []
        node_right: list[int] = []
        node_depth: list[int] = []
        leaf_members: list[np.ndarray] = []

        def make_leaf(indices: np.ndarray) -> int:
            leaf_members.append(np.sort(indices))
            return _encode_leaf(len(leaf_members) - 1)

        def choose_dim(indices: np.ndarray, depth: int) -> int:
            if self._split_rule == "cyclic" or len(indices) == 1:
                return depth % ndim
            members_t = np.take(points_t, indices, axis=1)
            spread = members_t.max(axis=1) - members_t.min(axis=1)
            return int(np.argmax(spread))

        self._root_ref = _NO_CHILD
        if self._top_height == 0:
            self._root_ref = make_leaf(np.arange(n, dtype=np.int64))
        else:
            # Tasks: (member indices, depth, parent node id, is_left).
            tasks: list[tuple[np.ndarray, int, int, bool]] = [
                (np.arange(n, dtype=np.int64), 0, _NO_CHILD, False)
            ]
            while tasks:
                indices, depth, parent, is_left = tasks.pop()
                if len(indices) == 0:
                    ref = _NO_CHILD
                elif depth >= self._top_height:
                    ref = make_leaf(indices)
                else:
                    dim = choose_dim(indices, depth)
                    values = points_t[dim][indices]
                    mid = (len(indices) - 1) // 2
                    if len(indices) == 1:
                        order = np.array([0], dtype=np.int64)
                    else:
                        order = np.argpartition(values, mid)
                    node = len(node_point)
                    node_point.append(int(indices[order[mid]]))
                    node_dim.append(dim)
                    node_value.append(float(values[order[mid]]))
                    node_left.append(_NO_CHILD)
                    node_right.append(_NO_CHILD)
                    node_depth.append(depth)
                    tasks.append((indices[order[:mid]], depth + 1, node, True))
                    tasks.append((indices[order[mid + 1 :]], depth + 1, node, False))
                    ref = node
                if parent == _NO_CHILD:
                    if ref != _NO_CHILD and self._root_ref == _NO_CHILD:
                        self._root_ref = ref
                elif is_left:
                    node_left[parent] = ref
                else:
                    node_right[parent] = ref

        self._node_point = np.array(node_point, dtype=np.int64)
        self._node_dim = np.array(node_dim, dtype=np.int64)
        self._node_value = np.array(node_value, dtype=np.float64)
        self._node_left = np.array(node_left, dtype=np.int64)
        self._node_right = np.array(node_right, dtype=np.int64)
        self._node_depth = np.array(node_depth, dtype=np.int64)
        self._in_top_tree = np.zeros(n, dtype=bool)
        self._in_top_tree[self._node_point] = True

        # Pad the leaf sets to the largest one: ascending member indices
        # per set, coordinate-major points, +inf in the padding slots.
        counts = np.array([len(m) for m in leaf_members], dtype=np.int64)
        width = int(counts.max()) if len(counts) else 0
        padding = np.arange(width) >= counts[:, None]
        self._leaf_count = counts
        self._leaf_orig = np.zeros((len(counts), width), dtype=np.int64)
        if len(counts):
            self._leaf_orig[~padding] = np.concatenate(leaf_members)
        self._leaf_points = np.take(points_t, self._leaf_orig, axis=1)
        self._leaf_points[:, padding] = np.inf
        self._lanes = _lane_orders(ndim)

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
    def top_height(self) -> int:
        return self._top_height

    @property
    def n_top_nodes(self) -> int:
        return len(self._node_point)

    @property
    def n_leaf_sets(self) -> int:
        return len(self._leaf_count)

    @property
    def leaf_set_sizes(self) -> np.ndarray:
        return self._leaf_count.copy()

    @property
    def mean_leaf_size(self) -> float:
        if len(self._leaf_count) == 0:
            return 0.0
        return float(self._leaf_count.mean())

    def leaf_set_indices(self, leaf_id: int) -> np.ndarray:
        """Original point indices stored in leaf set ``leaf_id``, sorted."""
        return self._leaf_orig[leaf_id, : self._leaf_count[leaf_id]].copy()

    def __repr__(self) -> str:
        return (
            f"TwoStageKDTree(n={self.n}, ndim={self.ndim}, "
            f"top_height={self.top_height}, leaf_sets={self.n_leaf_sets}, "
            f"mean_leaf_size={self.mean_leaf_size:.1f})"
        )

    # ------------------------------------------------------------------
    # Leaf scan primitives (exact mode).  The approximate search in
    # repro.core.approx supplies its own scan strategy via the same hook.
    # ------------------------------------------------------------------

    def scan_leaf(
        self, leaf_id: int, query: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Brute-force one leaf set: (original indices, squared distances).

        Indices come back ascending; distances are summed in the leaf
        kernel's fixed order (see the module docstring).
        """
        count = self._leaf_count[leaf_id]
        diff = self._leaf_points[:, leaf_id, :count] - query[:, None]
        return self._leaf_orig[leaf_id, :count], _sum_squares(diff, self._lanes)

    def _exact_leaf_scan(self, leaf_id, query, record):
        indices, sq = self.scan_leaf(leaf_id, query)
        record.scanned = len(indices)
        return indices, sq

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _check_query(self, query: np.ndarray, r: float | None = None) -> np.ndarray:
        """One query as a 1-row batch under the shared contract."""
        return check_batch(np.reshape(query, (1, -1)), self.ndim, r)[0]

    def _depth_first(self, query: np.ndarray, keep, leaf_scan) -> QueryTrace:
        """One query's depth-first search, folding results into ``keep``.

        The stack loop shared by :meth:`nn`, :meth:`knn` and
        :meth:`radius`; only the result holder (:class:`_Nearest`,
        :class:`_NearestK`, :class:`_InRadius`) differs.  A subtree or
        leaf is pruned when its bound exceeds ``keep.bound()``; the
        holder folds in each visited node's point (``keep.point``) and
        each scanned leaf set (``keep.leaf``).  A node pushes its far
        child first, so the near child is popped next.  Returns the
        query's trace record.
        """
        leaf_scan = leaf_scan or self._exact_leaf_scan
        record = QueryTrace()
        stack: list[tuple[int, float, np.ndarray]] = []
        if self._root_ref != _NO_CHILD:
            stack.append((self._root_ref, 0.0, np.zeros(self.ndim)))
            record.stack_pushes += 1
        while stack:
            ref, bound_sq, contrib = stack.pop()
            if ref <= _LEAF_BASE:
                leaf_id = _decode_leaf(ref)
                visit = LeafVisitRecord(leaf_id=leaf_id)
                record.leaf_visits.append(visit)
                if bound_sq > keep.bound():
                    visit.pruned = True
                else:
                    keep.leaf(*leaf_scan(leaf_id, query, visit), visit)
                continue
            if bound_sq > keep.bound():
                record.toptree_bypassed += 1
                continue
            record.toptree_visits += 1
            pidx = int(self._node_point[ref])
            keep.point(pidx, _point_sq_dist(query, self._points[pidx]))
            dim = self._node_dim[ref]
            delta = query[dim] - self._node_value[ref]
            left_child = self._node_left[ref]
            right_child = self._node_right[ref]
            if delta < 0:
                near, far = left_child, right_child
            else:
                near, far = right_child, left_child
            if far != _NO_CHILD:
                far_bound = bound_sq - contrib[dim] + delta * delta
                far_contrib = contrib.copy()
                far_contrib[dim] = delta * delta
                stack.append((int(far), far_bound, far_contrib))
                record.stack_pushes += 1
            if near != _NO_CHILD:
                stack.append((int(near), bound_sq, contrib))
                record.stack_pushes += 1
        return record

    def nn(
        self,
        query: np.ndarray,
        stats: SearchStats | None = None,
        trace: list[QueryTrace] | None = None,
        leaf_scan=None,
    ) -> tuple[int, float]:
        """Nearest neighbor: (point index, distance)."""
        query = self._check_query(query)
        keep = _Nearest()
        record = self._depth_first(query, keep, leaf_scan)
        found = keep.idx >= 0
        record.results = 1 if found else 0
        self._account(record, stats, trace)
        return keep.idx, float(np.sqrt(keep.sq)) if found else np.inf

    def knn(
        self,
        query: np.ndarray,
        k: int,
        stats: SearchStats | None = None,
        trace: list[QueryTrace] | None = None,
        leaf_scan=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` nearest neighbors, sorted by ascending distance."""
        query = self._check_query(query)
        if k <= 0:
            raise ValueError("k must be positive")
        keep = _NearestK(min(k, self.n))
        record = self._depth_first(query, keep, leaf_scan)
        entries = sorted(((-neg_sq, -neg_idx) for neg_sq, neg_idx in keep.heap))
        indices = np.array([idx for _, idx in entries], dtype=np.int64)
        dists = np.sqrt(np.array([sq for sq, _ in entries]))
        record.results = len(indices)
        self._account(record, stats, trace)
        return indices, dists

    def radius(
        self,
        query: np.ndarray,
        r: float,
        stats: SearchStats | None = None,
        sort: bool = False,
        trace: list[QueryTrace] | None = None,
        leaf_scan=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """All neighbors within distance ``r``: (indices, distances)."""
        query = self._check_query(query, r)
        keep = _InRadius(r * r)
        record = self._depth_first(query, keep, leaf_scan)
        if keep.idx:
            indices = np.concatenate(keep.idx).astype(np.int64)
            sq_found = np.concatenate(keep.sq)
            # Canonical ascending-index order, shared with the batch
            # path (which collects leaves in a different order).
            order = np.argsort(indices, kind="stable")
            indices = indices[order]
            dists = np.sqrt(sq_found[order])
        else:
            indices = np.empty(0, dtype=np.int64)
            dists = np.empty(0)
        record.results = len(indices)
        self._account(record, stats, trace)
        if sort and len(indices):
            order = np.argsort(dists, kind="stable")
            return indices[order], dists[order]
        return indices, dists

    # ------------------------------------------------------------------
    # Batch queries (see the module docstring).
    # ------------------------------------------------------------------

    def nn_batch(
        self,
        queries: np.ndarray,
        stats: SearchStats | None = None,
        trace: list[QueryTrace] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Nearest neighbor for every row of ``queries``.

        Runs the home-path schedule; with ``trace`` it runs the
        lockstep per-query traversal instead, which records each query's
        exact depth-first traversal for the accelerator model.
        """
        queries = check_batch(queries, self.ndim)
        if trace is None:
            return self._nn_batch_fast(queries, stats)
        return self._lockstep(queries, None, stats, trace)

    def nn_batch_anchored(
        self,
        queries: np.ndarray,
        anchor: NNAnchor | None,
        stats: SearchStats | None = None,
    ) -> tuple[np.ndarray, np.ndarray, NNAnchor]:
        """:meth:`nn_batch`, keeping every answer ``anchor`` certifies.

        Row ``i`` keeps its anchored nearest neighbor p without a search
        when ``|q′ - p| + |q′ - q_a| + τ < r`` (see the module
        docstring); the other rows run the home-path schedule, which
        also yields their new ``r``.  Results are bit-identical to
        :meth:`nn_batch`, and the searched rows charge exactly the work
        they charge there.  Certified rows charge ``queries``,
        ``reused_queries`` and ``results_returned`` but no traversal
        work, and a batch that certifies any row counts one
        ``cache_hits``.

        ``anchor`` (None for the first batch) is used only if it comes
        from this tree and a batch of the same shape; otherwise every row
        is searched.  Returns ``(indices, distances, anchor)``, the new
        anchor re-anchoring the searched rows at their query and keeping
        the certified rows' old anchor.
        """
        queries = check_batch(queries, self.ndim)
        if (
            anchor is None
            or anchor.tree is not self
            or anchor.queries.shape != queries.shape
        ):
            indices, dists, bounds = self._nn_batch_bounded(queries, stats)
            anchor = NNAnchor(self, queries.copy(), indices.copy(), bounds)
            return indices, dists, anchor
        dists = np.sqrt(self._sq_dists_to(queries, anchor.indices))
        moved = queries - anchor.queries
        delta = np.sqrt(np.einsum("ij,ij->i", moved, moved))
        certified = dists + delta + _CERT_ABSOLUTE < anchor.bounds * (
            1.0 - _CERT_RELATIVE
        )
        search = np.flatnonzero(~certified)

        indices = anchor.indices.copy()
        anchor_queries = anchor.queries.copy()
        bounds = anchor.bounds.copy()
        if len(search):
            indices[search], dists[search], bounds[search] = self._nn_batch_bounded(
                queries[search], stats
            )
            anchor_queries[search] = queries[search]
        n_reused = len(queries) - len(search)
        if stats is not None and n_reused:
            stats.queries += n_reused
            stats.reused_queries += n_reused
            stats.results_returned += n_reused
            stats.cache_hits += 1
        return indices, dists, NNAnchor(self, anchor_queries, indices.copy(), bounds)

    def radius_batch_csr(
        self,
        queries: np.ndarray,
        r: float,
        stats: SearchStats | None = None,
        sort: bool = False,
        trace: list[QueryTrace] | None = None,
    ) -> RaggedNeighborhoods:
        """Radius search for every row of ``queries``, in CSR form.

        The radius frontier accumulates every hit flat (query id,
        original point index, squared distance) in a
        :class:`~repro.core.ragged.RadiusHits`, whose one global sort
        puts each query's hits in ascending index order; the result
        carries the accepted squared distances as ``sq_distances``.
        ``sort=True`` applies the stable per-query distance sort once
        (:func:`repro.core.ragged.segment_sort_order`).  With ``trace``
        the result comes from the lockstep per-query traversal (see
        :meth:`nn_batch`).
        """
        queries = check_batch(queries, self.ndim, r)
        if trace is None:
            result = self._radius_batch_fast(queries, r, stats)
        else:
            result = self._lockstep(queries, r, stats, trace)
        if sort:
            result = result.sorted_by_distance()
        return result

    def knn_batch(
        self,
        queries: np.ndarray,
        k: int,
        stats: SearchStats | None = None,
        trace: list[QueryTrace] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """kNN for every row of ``queries``: (Q, min(k, n)) arrays.

        A tight loop over :meth:`knn`: kNN's bounded-heap eviction
        order is inherently sequential (see module docstring).  The whole
        batch is validated before the first row runs.
        """
        queries = check_batch(queries, self.ndim)
        if k <= 0:
            raise ValueError("k must be positive")
        k = min(k, self.n)
        indices = np.empty((len(queries), k), dtype=np.int64)
        dists = np.empty((len(queries), k))
        for i, query in enumerate(queries):
            indices[i], dists[i] = self.knn(query, k, stats, trace)
        return indices, dists

    # ------------------------------------------------------------------
    # Batch machinery
    # ------------------------------------------------------------------

    def _scan_leaf_block(
        self, leaf_id: int, queries: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scan one leaf set against a block of ``m`` queries at once.

        Returns (original indices (c,), squared distances (m, c)).  The
        indices ascend.  For each coordinate ``j``, the block's query
        column ``j`` is subtracted from the set's ``c`` members in row
        ``j`` of the padded layout into one ``(m, c)`` array;
        :func:`_sum_squares` then squares the terms and sums
        ``(dx² + dz²) + dy²`` in 3-D (the einsum lane order, see the
        module docstring), the same arithmetic as :meth:`scan_leaf`, so
        each row is bit-identical to it for that query.
        """
        count = self._leaf_count[leaf_id]
        points_t = self._leaf_points[:, leaf_id, :count]
        diff = np.empty((len(points_t), len(queries), count))
        for j, row in enumerate(points_t):
            np.subtract(row, queries[:, j, None], out=diff[j])
        return self._leaf_orig[leaf_id, :count], _sum_squares(diff, self._lanes)

    @staticmethod
    def _leaf_groups(leaf_ids: np.ndarray, rows: np.ndarray):
        """Yield (leaf_id, member rows) for each distinct leaf."""
        if len(leaf_ids) == 0:
            return
        order = np.argsort(leaf_ids, kind="stable")
        sorted_ids = leaf_ids[order]
        starts = np.nonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])[0]
        bounds = np.r_[starts, len(order)]
        for s, e in zip(bounds[:-1], bounds[1:]):
            yield int(sorted_ids[s]), rows[order[s:e]]

    def _node_sq_dists(self, queries_rows: np.ndarray, node_pts: np.ndarray):
        """Per-coordinate squared distances (same order as
        :func:`_point_sq_dist`, hence bit-identical to the depth-first
        search)."""
        t = queries_rows[:, 0] - node_pts[:, 0]
        d_sq = t * t
        for j in range(1, self.ndim):
            t = queries_rows[:, j] - node_pts[:, j]
            d_sq += t * t
        return d_sq

    def _nn_batch_bounded(self, queries: np.ndarray, stats: SearchStats | None):
        """The home-path schedule, plus each row's bound r."""
        runner_ups = _RunnerUps()
        indices, dists = self._nn_batch_fast(queries, stats, runner_ups)
        return indices, dists, runner_ups.bounds(len(queries), self.n)

    def _sq_dists_to(self, queries: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Squared distance from row ``i`` of ``queries`` to point
        ``indices[i]``, summed in the order every search sums that point:
        left to right for a top-tree node point, the leaf kernel's lane
        order for a leaf-set member."""
        points = self._points[indices]
        in_order = self._node_sq_dists(queries, points)
        in_lanes = _sum_squares(np.ascontiguousarray((points - queries).T), self._lanes)
        return np.where(self._in_top_tree[indices], in_order, in_lanes)

    def _split(self, refs: np.ndarray, query_rows: np.ndarray):
        """Near child, far child, ``delta**2`` and split dimension of each
        top-tree node ``refs[i]`` for query ``query_rows[i]``.

        The query's side of the split is the near child; absent children
        are ``_NO_CHILD``.
        """
        dim = self._node_dim[refs]
        delta = query_rows[np.arange(len(refs)), dim] - self._node_value[refs]
        goes_left = delta < 0
        left = self._node_left[refs]
        right = self._node_right[refs]
        near = np.where(goes_left, left, right)
        far = np.where(goes_left, right, left)
        return near, far, delta * delta, dim

    def _expand(
        self,
        refs: np.ndarray,
        query_rows: np.ndarray,
        bound: np.ndarray,
        contrib: np.ndarray,
    ):
        """Children of visited top-tree nodes, one row per (node, query).

        ``query_rows[i]`` is the query at node ``refs[i]``, reached with
        pruning bound ``bound[i]`` and per-dimension bound terms
        ``contrib[i]``.  The far child's bound swaps the split dimension's
        term for ``delta**2``, as the depth-first search does.  Returns
        ``(near, far, far_bound, far_contrib)``; the near child keeps
        ``bound``/``contrib``.
        """
        near, far, dd, dim = self._split(refs, query_rows)
        span = np.arange(len(refs))
        far_bound = bound - contrib[span, dim] + dd
        far_contrib = contrib.copy()
        far_contrib[span, dim] = dd
        return near, far, far_bound, far_contrib

    def _scan_pairs(self, leaf_ids: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Scan leaf ``leaf_ids[i]`` against query row ``queries[i]``.

        Returns ``(m, L)`` squared distances over the padded layout: row
        ``i`` holds the leaf's members in slot order, then +inf in its
        padding slots.  Each coordinate's point-minus-query differences
        are summed by :func:`_sum_squares`, so every member's distance is
        bit-identical to :meth:`scan_leaf`'s.
        """
        diff = self._leaf_points.take(leaf_ids, axis=1)
        diff -= queries.T[:, :, None]
        return _sum_squares(diff, self._lanes)

    def _nn_pairs(
        self,
        rows: np.ndarray,
        leaf_ids: np.ndarray,
        queries: np.ndarray,
        best_sq: np.ndarray,
        best_idx: np.ndarray,
        runner_ups: _RunnerUps | None = None,
    ) -> None:
        """Scan leaf ``leaf_ids[i]`` for query ``rows[i]``, for every pair,
        and fold each pair's lexicographic (distance, index) minimum into
        the running bests in place.  ``rows`` are distinct.

        Pairs are gathered in fixed chunks of :data:`_PAIR_SLOTS` leaf
        slots.  With ``runner_ups``, the fold records what loses, and a pair
        that takes the lead also records its second-nearest member (+inf
        for a one-member leaf).
        """
        if len(rows) == 0:  # also a tree with no leaf sets
            return
        chunk = max(1, _PAIR_SLOTS // self._leaf_orig.shape[1])
        for start in range(0, len(rows), chunk):
            chunk_rows = rows[start : start + chunk]
            chunk_ids = leaf_ids[start : start + chunk]
            sq = self._scan_pairs(chunk_ids, queries[chunk_rows])
            # Members ascend and the padding trails them at +inf, so
            # argmin's first occurrence is the lowest-index member at the
            # minimum distance.
            col = sq.argmin(axis=1)
            nearest_sq = sq[np.arange(len(chunk_rows)), col]
            nearest_idx = self._leaf_orig[chunk_ids, col]
            better = _fold_nearest(
                chunk_rows, nearest_sq, nearest_idx, best_sq, best_idx, runner_ups
            )
            if runner_ups is not None:
                # A leading pair may hold the row's final NN, so r needs
                # its leaf's second-nearest member.
                lead = np.flatnonzero(better)
                if len(lead) < len(better):
                    sq = sq[lead]
                span = np.arange(len(lead))
                sq[span, col[lead]] = np.inf
                runner_ups.add(chunk_rows[lead], sq[span, sq.argmin(axis=1)])

    def _home_paths(self, queries: np.ndarray):
        """Descend every query to its home leaf, without backtracking.

        Returns ``(home, levels)``.  ``home`` is the home leaf id per
        query, -1 where the descent dead-ends in an absent child.
        ``levels`` has one entry per depth, dense over the queries still
        descending: ``(rows, node point ids, node point squared
        distances, far child, delta**2, split dimension)``.
        """
        home = np.full(len(queries), -1, dtype=np.int64)
        levels = []
        if self._root_ref <= _LEAF_BASE:
            home[:] = _decode_leaf(self._root_ref)
            return home, levels
        rows = np.arange(len(queries), dtype=np.int64)
        refs = np.full(len(queries), self._root_ref, dtype=np.int64)
        while len(rows):
            at = queries[rows]
            pidx = self._node_point[refs]
            near, far, dd, dim = self._split(refs, at)
            sq = self._node_sq_dists(at, self._points[pidx])
            levels.append((rows, pidx, sq, far, dd, dim))
            at_leaf = near <= _LEAF_BASE
            home[rows[at_leaf]] = _LEAF_BASE - near[at_leaf]
            descend = near >= 0
            rows, refs = rows[descend], near[descend]
        return home, levels

    def _nn_batch_fast(
        self,
        queries: np.ndarray,
        stats: SearchStats | None,
        runner_ups: _RunnerUps | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The home-path schedule (see the module docstring).

        With ``runner_ups``, every candidate that loses and every bound
        the schedule prunes with is recorded there as well.
        """
        n_queries, ndim = queries.shape
        best_sq = np.full(n_queries, np.inf)
        best_idx = np.full(n_queries, -1, dtype=np.int64)
        visits = bypassed = leaf_pruned = 0

        # Home leaves first: they seed tight pruning bounds.
        home, levels = self._home_paths(queries)
        routed = np.flatnonzero(home >= 0)
        scanned = int(self._leaf_count[home[routed]].sum())
        self._nn_pairs(routed, home[routed], queries, best_sq, best_idx, runner_ups)

        # Top-tree rounds, one depth each.  The home path is replayed
        # densely: a home-path node is reached at bound 0, so it is always
        # visited, and its near child is the next level's node (or the
        # home leaf, already scanned).  Its far child's bound is
        # 0.0 - 0.0 + delta**2, which is delta**2 exactly.  Off-path
        # entries travel in a compacted (node, query, bound, contrib)
        # frontier, pruned against the bests as of the round's start.
        # Every leaf hangs at depth top_height, so leaf children are set
        # aside for the leaf round.
        ref = row = routed[:0]
        bound = np.empty(0)
        contrib = np.empty((0, ndim))
        no_siblings = (routed[:0], routed[:0], np.empty(0), routed[:0])
        siblings = no_siblings
        leaf_entries = []
        depth = 0
        while depth < len(levels) or len(ref) or len(siblings[0]):
            # The previous level's home-path far siblings (rows, nodes,
            # bounds, split dimensions) join the frontier if they survive
            # the check; only then are their bound terms (delta**2 in the
            # split dimension, zero elsewhere) built.
            s_row, s_ref, s_bound, s_dim = siblings
            alive = bound <= best_sq[row]
            s_keep = s_bound <= best_sq[s_row]
            s_alive = np.flatnonzero(s_keep)
            bypassed += len(alive) - int(np.count_nonzero(alive))
            bypassed += len(s_bound) - len(s_alive)
            if runner_ups is not None:
                runner_ups.add(row, np.where(alive, np.inf, bound))
                runner_ups.add(s_row, np.where(s_keep, np.inf, s_bound))
            s_contrib = np.zeros((len(s_alive), ndim))
            s_contrib[np.arange(len(s_alive)), s_dim[s_alive]] = s_bound[s_alive]
            ref = np.concatenate([s_ref[s_alive], ref[alive]])
            row = np.concatenate([s_row[s_alive], row[alive]])
            bound = np.concatenate([s_bound[s_alive], bound[alive]])
            contrib = np.concatenate([s_contrib, contrib[alive]])
            siblings = no_siblings
            if depth < len(levels):
                h_row, h_pidx, h_sq, h_far, h_dd, h_dim = levels[depth]
                visits += len(h_row)
                _fold_nearest(h_row, h_sq, h_pidx, best_sq, best_idx, runner_ups)
                to_leaf = h_far <= _LEAF_BASE
                leaf_entries.append(
                    (h_row[to_leaf], _LEAF_BASE - h_far[to_leaf], h_dd[to_leaf])
                )
                to_node = h_far >= 0
                siblings = tuple(a[to_node] for a in (h_row, h_far, h_dd, h_dim))
            if len(ref) == 0:  # nothing off the home path this round
                depth += 1
                continue
            visits += len(ref)
            at = queries[row]
            pidx = self._node_point[ref]
            d_sq = self._node_sq_dists(at, self._points[pidx])
            better = (d_sq < best_sq[row]) | (
                (d_sq == best_sq[row]) & (pidx < best_idx[row])
            )
            if runner_ups is not None:
                runner_ups.add(row, np.where(better, np.inf, d_sq))
            if np.any(better):
                # A query can meet several nodes in one round; reduce its
                # candidates to the lexicographic minimum before updating.
                bq, bsq, bidx = row[better], d_sq[better], pidx[better]
                sel = np.lexsort((bidx, bsq, bq))
                bq, bsq, bidx = bq[sel], bsq[sel], bidx[sel]
                first = _first_of_runs(bq)
                if runner_ups is not None:
                    runner_ups.add(bq, np.where(first, np.inf, bsq))
                _fold_nearest(
                    bq[first], bsq[first], bidx[first], best_sq, best_idx, runner_ups
                )
            near, far, far_bound, far_contrib = self._expand(ref, at, bound, contrib)
            ref = np.concatenate([far, near])
            row = np.concatenate([row, row])
            bound = np.concatenate([far_bound, bound])
            contrib = np.concatenate([far_contrib, contrib])
            to_leaf = ref <= _LEAF_BASE
            leaf_entries.append(
                (row[to_leaf], _LEAF_BASE - ref[to_leaf], bound[to_leaf])
            )
            to_node = ref >= 0
            ref, row = ref[to_node], row[to_node]
            bound, contrib = bound[to_node], contrib[to_node]
            depth += 1

        # Leaf round.  An entry out of bound now stays out (bests only
        # shrink); the rest are scanned in ascending leaf order per query,
        # each re-checked against the query's freshest best, one rank a
        # pass.  Pruning and scan counts equal a scan of every leaf in
        # ascending id order with a fresh check before each.
        if leaf_entries:
            l_row, l_leaf, l_bound = map(np.concatenate, zip(*leaf_entries))
            keep = l_bound <= best_sq[l_row]
            leaf_pruned += len(keep) - int(np.count_nonzero(keep))
            if runner_ups is not None:
                runner_ups.add(l_row, np.where(keep, np.inf, l_bound))
            l_row, l_leaf, l_bound = l_row[keep], l_leaf[keep], l_bound[keep]
            order = np.lexsort((l_leaf, l_row))
            l_row, l_leaf, l_bound = l_row[order], l_leaf[order], l_bound[order]
            starts = np.flatnonzero(_first_of_runs(l_row))
            rank = np.arange(len(l_row)) - np.repeat(
                starts, np.diff(starts, append=len(l_row))
            )
            for r in range(int(rank.max()) + 1 if len(rank) else 0):
                at_rank = rank == r
                rows, leaf_ids = l_row[at_rank], l_leaf[at_rank]
                leaf_bound = l_bound[at_rank]
                fresh = leaf_bound <= best_sq[rows]
                leaf_pruned += len(fresh) - int(np.count_nonzero(fresh))
                if runner_ups is not None:
                    runner_ups.add(rows, np.where(fresh, np.inf, leaf_bound))
                rows, leaf_ids = rows[fresh], leaf_ids[fresh]
                scanned += int(self._leaf_count[leaf_ids].sum())
                self._nn_pairs(rows, leaf_ids, queries, best_sq, best_idx, runner_ups)

        if stats is not None:
            stats.nodes_visited += visits + scanned
            stats.traversal_steps += visits + bypassed
            stats.pruned_subtrees += bypassed + leaf_pruned
            stats.queries += n_queries
            stats.results_returned += int(np.count_nonzero(best_idx >= 0))
        dists = np.sqrt(best_sq)
        dists[best_idx < 0] = np.inf
        return best_idx, dists

    def _radius_batch_fast(
        self,
        queries: np.ndarray,
        r: float,
        stats: SearchStats | None,
    ) -> RaggedNeighborhoods:
        n_queries, ndim = queries.shape
        r_sq = r * r
        hits = RadiusHits(n_queries, self.n, r)
        visits = bypassed = leaf_pruned = scanned = 0

        if n_queries and self._root_ref != _NO_CHILD:
            refs = np.full(n_queries, self._root_ref, dtype=np.int64)
            qidx = np.arange(n_queries, dtype=np.int64)
            bound = np.zeros(n_queries)
            contrib = np.zeros((n_queries, ndim))
            while len(refs):
                at_leaf = refs <= _LEAF_BASE
                if np.any(at_leaf):
                    leaf_ids = _LEAF_BASE - refs[at_leaf]
                    l_rows = qidx[at_leaf]
                    l_alive = bound[at_leaf] <= r_sq
                    leaf_pruned += int(np.count_nonzero(~l_alive))
                    for leaf_id, rows in self._leaf_groups(
                        leaf_ids[l_alive], l_rows[l_alive]
                    ):
                        orig, sq = self._scan_leaf_block(leaf_id, queries[rows])
                        scanned += sq.size
                        hits.add_block(rows, orig, sq)
                inner = ~at_leaf
                refs_i = refs[inner]
                q_i = qidx[inner]
                b_i = bound[inner]
                c_i = contrib[inner]
                alive = b_i <= r_sq
                bypassed += int(np.count_nonzero(~alive))
                refs_i, q_i, b_i, c_i = (
                    refs_i[alive],
                    q_i[alive],
                    b_i[alive],
                    c_i[alive],
                )
                visits += len(refs_i)
                if len(refs_i) == 0:
                    break
                pidx = self._node_point[refs_i]
                at = queries[q_i]
                hits.add(q_i, pidx, self._node_sq_dists(at, self._points[pidx]))
                near, far, far_bound, far_contrib = self._expand(refs_i, at, b_i, c_i)
                has_far = far != _NO_CHILD
                has_near = near != _NO_CHILD
                refs = np.concatenate([far[has_far], near[has_near]])
                qidx = np.concatenate([q_i[has_far], q_i[has_near]])
                bound = np.concatenate([far_bound[has_far], b_i[has_near]])
                contrib = np.concatenate([far_contrib[has_far], c_i[has_near]])

        result = hits.to_csr()
        if stats is not None:
            stats.nodes_visited += visits + scanned
            stats.traversal_steps += visits + bypassed
            stats.pruned_subtrees += bypassed + leaf_pruned
            stats.queries += n_queries
            stats.results_returned += result.n_entries
        return result

    def _lockstep(
        self,
        queries: np.ndarray,
        r: float | None,
        stats: SearchStats | None,
        trace: list[QueryTrace],
    ):
        """Every query's depth-first search, advanced in lockstep.

        NN search when ``r`` is None, radius search otherwise; see the
        module docstring for the schedule and why it is exact.  Leaf
        visits are logged per round and become the queries'
        :class:`QueryTrace` records, appended to ``trace`` in row order,
        at the end.  Returns what :meth:`nn_batch` returns for NN, the
        CSR result for radius.
        """
        n_queries, ndim = queries.shape
        nn = r is None
        best_sq = np.full(n_queries, np.inf)
        best_idx = np.full(n_queries, -1, dtype=np.int64)
        if not nn:
            r_sq = r * r
            hits = RadiusHits(n_queries, self.n, r)
        # A DFS stack holds at most one pending far child per depth plus
        # the near/far pair just pushed.
        depth = self._top_height + 2
        stack_ref = np.empty((n_queries, depth), dtype=np.int64)
        stack_bound = np.zeros((n_queries, depth))
        stack_contrib = np.zeros((n_queries, depth, ndim))
        top = np.zeros(n_queries, dtype=np.int64)
        visits = np.zeros(n_queries, dtype=np.int64)
        bypassed = np.zeros(n_queries, dtype=np.int64)
        pushes = np.zeros(n_queries, dtype=np.int64)
        # Leaf-visit log, one entry per round: (query, leaf id, scanned,
        # pruned, result size) arrays.
        log: list[tuple[np.ndarray, ...]] = []
        n_scanned = n_leaf_pruned = 0
        if self._root_ref != _NO_CHILD:
            stack_ref[:, 0] = self._root_ref
            top[:] = 1
            pushes[:] = 1
        active = np.flatnonzero(top)
        while len(active):
            top[active] -= 1
            slot = top[active]
            ref = stack_ref[active, slot]
            bound = stack_bound[active, slot]
            pruned = bound > (best_sq[active] if nn else r_sq)
            at_leaf = ref <= _LEAF_BASE
            if at_leaf.any():
                l_rows = active[at_leaf]
                leaf_ids = _LEAF_BASE - ref[at_leaf]
                l_pruned = pruned[at_leaf]
                scanned = np.where(l_pruned, 0, self._leaf_count[leaf_ids])
                sizes = np.zeros(len(l_rows), dtype=np.int64)
                live = np.flatnonzero(~l_pruned)
                if nn:
                    self._nn_pairs(
                        l_rows[live], leaf_ids[live], queries, best_sq, best_idx
                    )
                else:
                    for leaf_id, pos in self._leaf_groups(leaf_ids[live], live):
                        rows = l_rows[pos]
                        orig, sq = self._scan_leaf_block(leaf_id, queries[rows])
                        sizes[pos] = np.count_nonzero(sq <= r_sq, axis=1)
                        hits.add_block(rows, orig, sq)
                log.append((l_rows, leaf_ids, scanned, l_pruned, sizes))
                n_scanned += int(scanned.sum())
                n_leaf_pruned += int(np.count_nonzero(l_pruned))
            node = ~at_leaf
            bypassed[active[node & pruned]] += 1
            expand = node & ~pruned
            if expand.any():
                q = active[expand]
                refs = ref[expand]
                at = queries[q]
                pidx = self._node_point[refs]
                d_sq = self._node_sq_dists(at, self._points[pidx])
                if nn:
                    _fold_nearest(q, d_sq, pidx, best_sq, best_idx)
                else:
                    hits.add(q, pidx, d_sq)
                visits[q] += 1
                b = bound[expand]
                contrib = stack_contrib[q, slot[expand]]
                near, far, far_bound, far_contrib = self._expand(refs, at, b, contrib)
                for child, child_bound, child_contrib in (
                    (far, far_bound, far_contrib),
                    (near, b, contrib),
                ):
                    has = child != _NO_CHILD
                    qh = q[has]
                    at_top = top[qh]
                    stack_ref[qh, at_top] = child[has]
                    stack_bound[qh, at_top] = child_bound[has]
                    stack_contrib[qh, at_top] = child_contrib[has]
                    top[qh] += 1
                    pushes[qh] += 1
            active = active[top[active] > 0]

        if nn:
            results = (best_idx >= 0).astype(np.int64)
        else:
            result = hits.to_csr()
            results = result.counts
        trace.extend(_query_traces(visits, bypassed, pushes, results, log))
        if stats is not None:
            stats.nodes_visited += int(visits.sum()) + n_scanned
            stats.traversal_steps += int(visits.sum() + bypassed.sum())
            stats.pruned_subtrees += int(bypassed.sum()) + n_leaf_pruned
            stats.queries += n_queries
            stats.results_returned += int(results.sum())
        if not nn:
            return result
        dists = np.sqrt(best_sq)
        dists[best_idx < 0] = np.inf
        return best_idx, dists

    # ------------------------------------------------------------------

    def _account(
        self,
        record: QueryTrace,
        stats: SearchStats | None,
        trace: list[QueryTrace] | None,
    ) -> None:
        if stats is not None:
            stats.nodes_visited += record.nodes_visited
            stats.traversal_steps += record.toptree_visits + record.toptree_bypassed
            stats.pruned_subtrees += record.toptree_bypassed + sum(
                1 for v in record.leaf_visits if v.pruned
            )
            stats.leader_checks += record.leader_checks
            stats.queries += 1
            stats.results_returned += record.results
        if trace is not None:
            trace.append(record)
