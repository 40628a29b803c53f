"""Neighbor-search backends for the registration pipeline.

Every shaded stage in paper Fig. 2 (Normal Estimation, Descriptor
Calculation, KPCE, RPCE) funnels its neighbor queries through this
module.  A :class:`NeighborSearcher` wraps one of the backends in
:data:`BACKENDS` — canonical KD-tree, two-stage KD-tree, the
approximate leaders/followers search, or an exhaustive brute-force
scan — behind one interface, and transparently:

* accumulates :class:`~repro.kdtree.stats.SearchStats` (work counts for
  the accelerator model and Fig. 6);
* charges wall time to the active :class:`~repro.profiling.StageProfiler`
  (the Fig. 4b KD-tree vs. other split);
* optionally applies an error injector (Fig. 7's k-th NN and shell
  radius studies).

Batch query layer
-----------------
Batches are the only query form: a single query is a 1-row batch.
Pipeline stages issue **one batched call per stage** — ``nn_batch``,
``knn_batch`` (rectangular ``(Q, min(k, n))`` results), and
``radius_batch_csr`` (one flat
:class:`~repro.core.ragged.RaggedNeighborhoods` in CSR form) — the
software analogue of the accelerator's data-parallel PE array.  Every
backend implements these three entry points natively: fully vectorized
chunked scans for brute-force, a vectorized top-tree sweep with bulk
leaf scans for the two-stage tree (radius grouped by leaf, NN along
each query's home path with one ``(query, leaf)``-pair kernel), a
level-synchronous frontier sweep for the canonical KD-tree (the
per-query depth-first stacks fused into flat ``(node, query)`` arrays;
one query's pruned traversal is inherently sequential — the very
bottleneck the paper targets), and sequential leader-state updates
for the approximate search.  Each backend validates a whole batch
before any work (:func:`repro.kdtree._validate.check_batch`): a bad
row anywhere, or a negative or NaN radius, raises before a counter, a
leader buffer or an anchor changes.  Radius results travel CSR
end-to-end: every backend *produces* flat
``indices``/``offsets``/``distances`` (with any
requested per-segment distance sort done once by a global lexsort), the
reuse cache and injectors pass the CSR form through unchanged, and the
front-end consumers gather from it directly.
:meth:`NeighborSearcher.radius_batch` is the one list view: it slices
the CSR result into per-query lists.
The searcher charges the profiler once per batch and counts one
``SearchStats.batches`` increment per call; ``queries``/
``results_returned`` stay exact per query (CSR-delivered queries
additionally tick ``csr_results``), while the work counters (node
visits, pruning) reflect the schedule actually executed; the two-stage
NN batch's counts are pinned exactly by
``tests/core/test_twostage.py::TestNNBatchCounters`` (see
:mod:`repro.core.twostage`).  The exact backends — canonical,
two-stage and brute force, every backend but the approximate one —
return what :mod:`repro.kdtree.bruteforce` returns; their distances
match its bits wherever they sum squares in its order (the two-stage
leaf kernel does not), which ``tests/registration/test_batch_parity.py``
checks.

Nested-radius reuse
-------------------
Preprocess stages query the *same* per-frame index at nested radii
over the frame's own points: normal estimation at ``normals.radius``,
Harris/SIFT keypoint support, and the descriptor supports are all row
subsets of one conceptual all-points radius search.  The plan
(``pipeline._planned_reuse_radius``) is the largest radius a stage
searches over every row — normal estimation and a Harris/SIFT
detector — so a descriptor with a larger radius, which queries only
keypoints and their neighbours, searches those rows fresh; with a
``uniform`` or ``narf`` detector the plan takes the descriptor radius
too.
A :class:`RadiusReuseCache` (installed by
``Pipeline.preprocess``; plain searchers carry none and behave exactly
as before) runs that search once — the first eligible full-cloud
radius batch is transparently inflated to the planned
radius and its CSR result retained — and serves every later nested
request by row-select plus exact squared-distance re-filter
(:func:`repro.core.ragged.csr_radius_select_csr`) on the backend's own
accepted squared distances, bit-identical to a fresh query.
Accounting stays honest: the filling stage is charged
the full inflated search it executed (its ``results_returned`` counts
the retained larger-radius results), while served calls charge
``queries``/``reused_queries``/``cache_hits`` and their filtered
result counts but no traversal work.  Callers opt in per call by
passing ``self_indices`` — the index rows their query points are —
and the cache is bypassed whenever an injector is active, the
effective index is not the cache's own (e.g. the stateful approximate
wrapper), or the radius exceeds the cached one.  The searcher validates
the batch and the radius before it consults the cache, so a served call
rejects what a fresh search rejects.

Certified nearest-neighbor reuse
--------------------------------
ICP's RPCE issues one NN batch per iteration against the same target
tree, with the source moved only slightly.  An :class:`NNReuseAnchor`
keeps, between the batches of one ICP call, each row's anchor: the
query it was last searched at, its nearest neighbor there and a bound
r on the distance to every other point.  ``icp`` makes one per call and
passes it through ``estimate_point_correspondences`` to
:meth:`NeighborSearcher.nn_batch`, where
:meth:`~repro.core.twostage.TwoStageKDTree.nn_batch_anchored` keeps
every answer the triangle inequality proves unchanged and searches the
other rows.  The certificate, the bound r and the order rule for
recomputing a kept row's distance live in :mod:`repro.core.twostage`.
Results are bit-identical to a fresh search.  Certified rows charge
``queries``/``reused_queries``/``results_returned`` and one
``cache_hits`` per batch, but no traversal work.  Reuse engages only on
a two-stage tree with no injector: the canonical backend (the Fig. 4
baseline), the approximate backend's per-iteration searchers, the other
RPCE methods and the accelerator's traced captures never use it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.approx import ApproximateSearch, ApproximateSearchConfig
from repro.core.ragged import RaggedNeighborhoods, csr_radius_select_csr
from repro.core.twostage import NNAnchor, TwoStageKDTree
from repro.kdtree import bruteforce
from repro.kdtree._validate import check_batch
from repro.kdtree.stats import SearchStats
from repro.kdtree.tree import KDTree
from repro.profiling.timer import StageProfiler

__all__ = [
    "BACKENDS",
    "SearchConfig",
    "NeighborSearcher",
    "NNReuseAnchor",
    "RadiusReuseCache",
    "build_searcher",
    "build_index",
    "exact_index",
]

BACKENDS = ("canonical", "twostage", "approximate", "bruteforce")


@dataclass(frozen=True)
class SearchConfig:
    """How a pipeline stage performs its neighbor searches.

    ``backend``
        ``"canonical"`` — classic KD-tree (the paper's baseline);
        ``"twostage"`` — exact search on the two-stage structure (the
        accelerator's data layout; also the fastest exact option here
        because leaf scans vectorize);
        ``"approximate"`` — two-stage with leaders/followers;
        ``"bruteforce"`` — exhaustive scan (used for high-dimensional
        feature spaces where KD-trees degrade).
    ``leaf_size``
        Target leaf-set size for the two-stage backends (the paper's
        sweep parameter in Fig. 6; ~128 at the design point).
    ``approx``
        Thresholds for the approximate backend.
    """

    backend: str = "twostage"
    leaf_size: int = 64
    approx: ApproximateSearchConfig = field(default_factory=ApproximateSearchConfig)

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if self.leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")


class _BruteForceIndex:
    """Adapter giving the brute-force scan the batch-search interface."""

    def __init__(self, points: np.ndarray):
        self._points = np.array(points, dtype=np.float64)
        if len(self._points) == 0:
            raise ValueError("cannot search an empty point set")
        self._points_t = np.ascontiguousarray(self._points.T)

    @property
    def points(self) -> np.ndarray:
        return self._points

    def _charge(self, stats: SearchStats | None, queries: int, results: int) -> None:
        if stats is not None:
            stats.nodes_visited += len(self._points) * queries
            stats.queries += queries
            stats.results_returned += results

    def nn_batch(self, queries, stats=None):
        indices, dists = bruteforce.nn_batch(self._points, queries, self._points_t)
        self._charge(stats, len(indices), len(indices))
        return indices, dists

    def knn_batch(self, queries, k, stats=None):
        indices, dists = bruteforce.knn_batch(self._points, queries, k, self._points_t)
        self._charge(stats, len(indices), indices.size)
        return indices, dists

    def radius_batch_csr(self, queries, r, stats=None, sort=False):
        result = bruteforce.radius_batch_csr(
            self._points, queries, r, sort=sort, points_t=self._points_t
        )
        self._charge(stats, result.n_segments, result.n_entries)
        return result


class RadiusReuseCache:
    """One inflated radius search serving a frame's nested-radius stages.

    Holds the CSR result (flat indices, offsets, distances, and the
    *squared* distances the backend accepted, its ``sq_distances``) of
    a single all-points radius search at ``max_radius`` over ``index``.
    ``fill`` runs that search; ``serve_csr`` derives any nested request —
    a row subset at any radius ``r <= max_radius`` — via
    :func:`repro.core.ragged.csr_radius_select_csr`, bit-identical to a
    fresh query of the same rows.  Once filled the cache is immutable,
    so repeated preprocessing of the same frame reuses identically and
    charges identical stats.

    The cache is valid for exactly one index object (compared by
    identity): :class:`NeighborSearcher` bypasses it whenever its
    effective index differs — notably the per-stage fresh
    :class:`~repro.core.approx.ApproximateSearch` views, whose stateful
    leader results must never be reused across stages.
    """

    def __init__(self, index, max_radius: float):
        self.index = index
        self.max_radius = float(max_radius)
        self.filled = False
        self._indices: np.ndarray | None = None
        self._offsets: np.ndarray | None = None
        self._dists: np.ndarray | None = None
        self._sq_dists: np.ndarray | None = None

    def covers_all_rows(self, self_indices: np.ndarray) -> bool:
        """Whether ``self_indices`` is every index row in natural order
        (the only query set whose result can serve arbitrary subsets)."""
        n = len(self.index.points)
        return len(self_indices) == n and bool(
            np.array_equal(self_indices, np.arange(n, dtype=np.int64))
        )

    def fill(self, stats: SearchStats) -> None:
        """Run the inflated all-points search and retain its CSR result.

        Charged to ``stats`` exactly as the backend reports it — the
        filling stage owns the work it executed, including the results
        beyond its own requested radius that later stages will reuse.
        The cache keeps the squared distances the backend itself
        compared against the radius (``sq_distances``), so the serve
        filter re-applies the very predicate a fresh search applies.
        """
        points = self.index.points
        result = self.index.radius_batch_csr(points, self.max_radius, stats)
        if result.sq_distances is None:
            raise ValueError(
                f"{type(self.index).__name__} radius results carry no "
                "sq_distances; the reuse cache needs an exact backend"
            )
        self._indices, self._offsets = result.indices, result.offsets
        self._dists, self._sq_dists = result.distances, result.sq_distances
        self.filled = True

    def serve_csr(
        self, rows: np.ndarray, r: float, sort: bool = False
    ) -> RaggedNeighborhoods:
        """Radius-``r`` result for index ``rows``, filtered from the cache."""
        return csr_radius_select_csr(
            self._indices,
            self._offsets,
            self._sq_dists,
            self._dists,
            rows,
            r,
            sort=sort,
        )


class NNReuseAnchor:
    """Certified nearest-neighbor reuse across one ICP call's RPCE batches.

    Keeps, between batches, the :class:`~repro.core.twostage.NNAnchor` of
    the last anchored search: per source row, the query it was last
    searched at, its nearest neighbor there and the bound r.
    :meth:`NeighborSearcher.nn_batch` hands it to
    :meth:`~repro.core.twostage.TwoStageKDTree.nn_batch_anchored` and
    stores the anchor that comes back.  :func:`repro.registration.icp.icp`
    makes one per call, so no anchor outlives the ICP call it serves.
    """

    def __init__(self):
        self.anchor: NNAnchor | None = None


class NeighborSearcher:
    """Uniform, instrumented query interface over any backend.

    All pipeline stages call the batched entry points :meth:`nn_batch`,
    :meth:`knn_batch`, and :meth:`radius_batch_csr` — one call per
    stage, one timer read and one ``batches`` increment per call; query
    and result counters stay exact per query, and work counters reflect
    the batch schedule actually executed.  :meth:`radius_batch` is the
    one list view of a radius batch.  An injector (see
    :mod:`repro.registration.error_injection`) may post-process the
    results of every entry point.
    """

    def __init__(
        self,
        index,
        stats: SearchStats,
        build_time: float,
        profiler: StageProfiler | None = None,
        injector=None,
        reuse: RadiusReuseCache | None = None,
    ):
        self._index = index
        self.stats = stats
        self.build_time = build_time
        self._profiler = profiler
        self._injector = injector
        self._reuse = reuse if reuse is not None and reuse.index is index else None

    @property
    def index(self):
        """The underlying search structure."""
        return self._index

    @property
    def points(self) -> np.ndarray:
        return self._index.points

    def nn_batch(
        self, queries: np.ndarray, reuse: NNReuseAnchor | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Nearest neighbor for every row of ``queries``: ((Q,), (Q,)).

        ``reuse``, when given, lets rows its anchor certifies keep their
        previous answer without a search (bit-identical to a fresh
        query).  It is used only on a two-stage tree with no injector;
        any other searcher ignores it.
        """
        start = time.perf_counter()
        if self._injector is not None:
            result = self._injector.nn_batch(self._index, queries, self.stats)
        elif reuse is not None and isinstance(self._index, TwoStageKDTree):
            indices, dists, reuse.anchor = self._index.nn_batch_anchored(
                queries, reuse.anchor, self.stats
            )
            result = indices, dists
        else:
            result = self._index.nn_batch(queries, self.stats)
        self.stats.batches += 1
        if self._profiler is not None:
            self._profiler.charge_search(time.perf_counter() - start)
        return result

    def knn_batch(
        self, queries: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """kNN for every row of ``queries``: ((Q, min(k, n)), same)."""
        start = time.perf_counter()
        if self._injector is not None:
            result = self._injector.knn_batch(self._index, queries, k, self.stats)
        else:
            result = self._index.knn_batch(queries, k, self.stats)
        self.stats.batches += 1
        if self._profiler is not None:
            self._profiler.charge_search(time.perf_counter() - start)
        return result

    def radius_batch(
        self,
        queries: np.ndarray,
        r: float,
        sort: bool = False,
        self_indices: np.ndarray | None = None,
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Radius search for every row of ``queries``: ragged lists.

        The list view of :meth:`radius_batch_csr`: the same search,
        sliced into per-query ``(index_lists, dist_lists)``.  Because
        the slicing happens here, on the delivery edge, the queries are
        not counted as CSR-delivered (``stats.csr_results`` stays
        untouched); every other counter is charged as by
        :meth:`radius_batch_csr`.
        """
        start = time.perf_counter()
        result = self._radius(queries, r, sort, self_indices)
        self.stats.batches += 1
        if self._profiler is not None:
            self._profiler.charge_search(time.perf_counter() - start)
        return result.to_list_pair()

    def radius_batch_csr(
        self,
        queries: np.ndarray,
        r: float,
        sort: bool = False,
        self_indices: np.ndarray | None = None,
    ) -> RaggedNeighborhoods:
        """Radius search for every row of ``queries``, CSR end-to-end.

        Returns the backend's :class:`RaggedNeighborhoods` directly —
        flat indices/offsets/distances, never materialized as per-query
        lists anywhere between the index and the consumer.  Entries per
        segment follow the backend's radius order (ascending index), or
        ascending distance when ``sort=True``.

        ``self_indices``, when given, asserts that row ``i`` of
        ``queries`` is index point ``self_indices[i]`` — the hint that
        lets an installed :class:`RadiusReuseCache` serve the call by
        filtering its cached larger-radius result (bit-identical to the
        fresh search).  Searchers without a cache ignore it.  The batch
        and ``r`` are validated first, so a call the backend would
        reject is rejected before the cache is consulted.  Every query
        is counted in ``stats.csr_results``.
        """
        start = time.perf_counter()
        result = self._radius(queries, r, sort, self_indices)
        self.stats.csr_results += result.n_segments
        self.stats.batches += 1
        if self._profiler is not None:
            self._profiler.charge_search(time.perf_counter() - start)
        return result

    def _radius(self, queries, r, sort, self_indices) -> RaggedNeighborhoods:
        """The radius search behind both radius entry points."""
        queries = check_batch(queries, self.points.shape[1], r)
        if self._injector is not None:
            return self._injector.radius_batch_csr(
                self._index, queries, r, self.stats, sort
            )
        result = self._reused_radius_csr(r, sort, self_indices)
        if result is None:
            result = self._index.radius_batch_csr(
                queries, r, self.stats, sort=sort
            )
        return result

    def _reused_radius_csr(self, r, sort, self_indices):
        """Serve a radius batch from the reuse cache, or None for fresh.

        The first eligible full-cloud call fills the cache (inflated to
        the planned maximum radius, charged to this searcher's stats as
        the backend reports it); later calls — any row subset at any
        nested radius — charge ``reused_queries``/``cache_hits`` and
        their filtered result counts, but no traversal work.
        """
        cache = self._reuse
        if cache is None or self_indices is None or r > cache.max_radius:
            return None
        self_indices = np.asarray(self_indices, dtype=np.int64)
        filled_now = False
        if not cache.filled:
            if not cache.covers_all_rows(self_indices):
                return None
            cache.fill(self.stats)
            filled_now = True
        result = cache.serve_csr(self_indices, r, sort=sort)
        if not filled_now:
            self.stats.queries += len(self_indices)
            self.stats.reused_queries += len(self_indices)
            self.stats.cache_hits += 1
            self.stats.results_returned += result.n_entries
        return result


def build_index(
    points: np.ndarray,
    config: SearchConfig | None = None,
    profiler: StageProfiler | None = None,
) -> tuple[object, float]:
    """Construct the raw search structure over ``points``.

    Returns ``(index, build_time)``.  This is the per-frame artifact the
    pipeline's :class:`~repro.registration.pipeline.FrameState` owns and
    reuses across registrations; :class:`NeighborSearcher` instances are
    cheap per-stage views derived from it.  Build time is charged to the
    profiler's active stage as KD-tree construction (the middle band of
    Fig. 4b).
    """
    config = config or SearchConfig()
    start = time.perf_counter()
    if config.backend == "canonical":
        index = KDTree(points)
    elif config.backend == "twostage":
        index = TwoStageKDTree.from_leaf_size(points, config.leaf_size)
    elif config.backend == "approximate":
        tree = TwoStageKDTree.from_leaf_size(points, config.leaf_size)
        index = ApproximateSearch(tree, config.approx)
    else:
        index = _BruteForceIndex(points)
    build_time = time.perf_counter() - start
    if profiler is not None:
        profiler.charge_construction(build_time)
    return index, build_time


def exact_index(index):
    """Strip the stateful approximation layer, if any, off an index.

    The sparse, error-sensitive stages (keypoints, descriptors) always
    search the exact two-stage tree even when the pipeline runs the
    approximate backend (paper Sec. 4.2).
    """
    return index.tree if isinstance(index, ApproximateSearch) else index


def build_searcher(
    points: np.ndarray,
    config: SearchConfig | None = None,
    profiler: StageProfiler | None = None,
    stats: SearchStats | None = None,
    injector=None,
) -> NeighborSearcher:
    """Construct the configured search structure over ``points``.

    Build time is charged to the profiler's active stage as KD-tree
    construction (the middle band of Fig. 4b).
    """
    stats = stats if stats is not None else SearchStats()
    index, build_time = build_index(points, config, profiler)
    return NeighborSearcher(
        index, stats, build_time, profiler=profiler, injector=injector
    )
