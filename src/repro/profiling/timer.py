"""Hierarchical stage profiler.

The bottleneck analysis of paper Sec. 3.2 (Fig. 4) needs two views of
the same run: wall time per pipeline *stage* (Normal Estimation, KPCE,
RPCE, ...) and, cutting across stages, time spent in KD-tree *search*
versus KD-tree *construction* versus everything else.  ``StageProfiler``
supports both: stages are timed with context managers, and the neighbor
search wrapper charges its own time to dedicated cross-cutting buckets.

``StageProfiler`` is also the compatibility shim over the unified
telemetry layer (:mod:`repro.telemetry`).  Attach a
:class:`~repro.telemetry.Tracer` (the ``tracer`` field) and every
stage additionally opens a span (category ``"stage"``) in the
tracer's span tree — nested under whatever structural span the caller
holds open — with *exactly* the duration and KD-tree charges the
stage table records (the shim closes the span with its own measured
elapsed time, so ``stage_fractions()`` and the span-tree rollup agree
bit-for-bit; pinned by ``tests/telemetry/test_shim_equivalence.py``).
With no tracer attached — the default — behavior and cost are
unchanged from the pre-telemetry profiler.  Stages themselves still
may not nest (the pipeline is sequential); arbitrary nesting lives in
the tracer's structural spans, not in the stage table.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["StageProfiler", "StageTiming"]


@dataclass
class StageTiming:
    """Accumulated timing for one named stage."""

    total: float = 0.0
    kdtree_search: float = 0.0
    kdtree_construction: float = 0.0
    calls: int = 0

    @property
    def other(self) -> float:
        """Time not attributable to KD-tree work."""
        return max(0.0, self.total - self.kdtree_search - self.kdtree_construction)


@dataclass
class StageProfiler:
    """Collects per-stage and cross-cutting KD-tree timings.

    Stages may not overlap (the pipeline is sequential); the currently
    open stage receives any KD-tree charges reported while it is active.
    """

    stages: dict[str, StageTiming] = field(default_factory=dict)
    _active: str | None = None
    # Optional repro.telemetry.Tracer backing this profiler.  When set,
    # stages mirror into the tracer's span tree and KD-tree charges
    # land on the innermost open span as well as the stage buckets.
    tracer: object | None = None

    @contextmanager
    def stage(self, name: str):
        """Time a pipeline stage: ``with profiler.stage("RPCE"): ...``."""
        if self._active is not None:
            raise RuntimeError(
                f"stage {name!r} opened while {self._active!r} is active"
            )
        timing = self.stages.setdefault(name, StageTiming())
        self._active = name
        tracer = self.tracer
        span = tracer.begin(name, category="stage") if tracer is not None else None
        start = time.perf_counter()
        try:
            yield timing
        finally:
            elapsed = time.perf_counter() - start
            timing.total += elapsed
            timing.calls += 1
            self._active = None
            if span is not None:
                # Close with the measured elapsed time so the span tree
                # and the stage table agree exactly.
                tracer.end(span, duration=elapsed)

    def charge_search(self, elapsed: float) -> None:
        """Attribute ``elapsed`` seconds of KD-tree search to the open stage."""
        if self._active is not None:
            self.stages[self._active].kdtree_search += elapsed
        if self.tracer is not None:
            self.tracer.charge_search(elapsed)

    def charge_construction(self, elapsed: float) -> None:
        """Attribute KD-tree build time to the open stage."""
        if self._active is not None:
            self.stages[self._active].kdtree_construction += elapsed
        if self.tracer is not None:
            self.tracer.charge_construction(elapsed)

    # ------------------------------------------------------------------
    # Aggregations used by the Fig. 4 benches
    # ------------------------------------------------------------------

    @property
    def total(self) -> float:
        return sum(t.total for t in self.stages.values())

    @property
    def total_kdtree_search(self) -> float:
        return sum(t.kdtree_search for t in self.stages.values())

    @property
    def total_kdtree_construction(self) -> float:
        return sum(t.kdtree_construction for t in self.stages.values())

    def stage_totals(self) -> dict[str, float]:
        """Stage name -> accumulated seconds (the trace cross-check view).

        This is what ``--trace`` flags embed as ``profilerTotals`` in
        the Chrome trace so ``tools/check_trace.py`` can verify the
        span tree against the legacy table.
        """
        return {name: timing.total for name, timing in self.stages.items()}

    def stage_fractions(self) -> dict[str, float]:
        """Fraction of total time per stage (Fig. 4a rows)."""
        total = self.total
        if total == 0:
            return {name: 0.0 for name in self.stages}
        return {name: t.total / total for name, t in self.stages.items()}

    def kdtree_fractions(self) -> dict[str, float]:
        """Fractions for Fig. 4b: search / construction / other."""
        total = self.total
        if total == 0:
            return {"search": 0.0, "construction": 0.0, "other": 0.0}
        search = self.total_kdtree_search
        construction = self.total_kdtree_construction
        return {
            "search": search / total,
            "construction": construction / total,
            "other": max(0.0, total - search - construction) / total,
        }

    def merge(self, other: "StageProfiler", stages: tuple | None = None) -> None:
        """Fold another profiler's stages into this one.

        ``stages`` restricts the fold to the named stages — used when a
        consumer only accounts part of a shared profile (e.g. the DSE
        explorer attributing cached preprocess work to configurations
        that skipped the feature stages).
        """
        for name, timing in other.stages.items():
            if stages is not None and name not in stages:
                continue
            mine = self.stages.setdefault(name, StageTiming())
            mine.total += timing.total
            mine.kdtree_search += timing.kdtree_search
            mine.kdtree_construction += timing.kdtree_construction
            mine.calls += timing.calls

    def report(
        self, extended: bool = False, search_stats=None, odometry_stats=None
    ) -> str:
        """Human-readable table of stage timings.

        With ``extended``, adds the non-KD-tree remainder (``other`` —
        the stage's aggregation kernels) and each stage's share of the
        total, the view ``examples/quickstart.py --profile`` prints.
        Passing a :class:`~repro.kdtree.stats.SearchStats` as
        ``search_stats`` (extended mode only) appends a counters line
        showing how the run's queries were answered: the total, the
        radius queries delivered CSR-natively (``csr``), and those
        answered without a traversal (``reused``/``cache hits``), by
        the nested-radius reuse cache or as ICP nearest neighbors
        certified unchanged since the previous iteration.  Passing an
        :class:`~repro.registration.odometry.OdometryStats` as
        ``odometry_stats`` (extended mode only) appends the run's
        health line — non-converged ICP pairs and any recovery-ladder
        activity, previously invisible in this view.
        """
        header = f"{'stage':<28}{'total(s)':>10}{'kd-search':>11}{'kd-build':>10}"
        if extended:
            header += f"{'other':>10}{'share':>8}"
        lines = [header]
        total = self.total
        for name, timing in sorted(
            self.stages.items(), key=lambda kv: -kv[1].total
        ):
            row = (
                f"{name:<28}{timing.total:>10.4f}"
                f"{timing.kdtree_search:>11.4f}{timing.kdtree_construction:>10.4f}"
            )
            if extended:
                share = timing.total / total if total > 0 else 0.0
                row += f"{timing.other:>10.4f}{100 * share:>7.1f}%"
            lines.append(row)
        footer = (
            f"{'TOTAL':<28}{self.total:>10.4f}"
            f"{self.total_kdtree_search:>11.4f}{self.total_kdtree_construction:>10.4f}"
        )
        if extended:
            other = max(
                0.0,
                total - self.total_kdtree_search - self.total_kdtree_construction,
            )
            footer += f"{other:>10.4f}{(100.0 if total > 0 else 0.0):>7.1f}%"
        lines.append(footer)
        if extended and search_stats is not None:
            lines.append(
                f"queries: {search_stats.queries} "
                f"(csr {search_stats.csr_results}, "
                f"reused {search_stats.reused_queries}, "
                f"cache hits {search_stats.cache_hits})"
            )
        if extended and odometry_stats is not None:
            lines.append(f"health: {odometry_stats.summary()}")
        return "\n".join(lines)
