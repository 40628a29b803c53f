"""Search-work instrumentation.

Fig. 4b, Fig. 6 and the whole accelerator evaluation hinge on counting
how much work a search performs.  ``SearchStats`` is the single source of
truth: every search entry point accepts an optional stats accumulator and
charges node visits to it.  A "node visit" is a distance computation
against a stored point — the unit the paper plots in Fig. 6b and the unit
the accelerator's processing elements execute.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["SearchStats"]


@dataclass
class SearchStats:
    """Accumulated work counters across one or more search queries.

    ``nodes_visited``
        Distance computations against tree-node points (canonical tree)
        plus leaf-set points scanned exhaustively (two-stage tree).  This
        is the paper's Fig. 6 "number of nodes visited".
    ``traversal_steps``
        Tree-edge traversals (stack pops), a proxy for the sequential
        recursion work the accelerator front-end performs.
    ``pruned_subtrees``
        Subtrees skipped by the bounding-distance test.
    ``leader_checks``
        Distance computations against leaders in the approximate search.
    ``queries`` / ``results_returned``
        Bookkeeping for averaging.
    ``batches``
        Batched entry-point invocations charged by
        :class:`~repro.registration.search.NeighborSearcher`; with the
        batch query layer a whole pipeline stage is one batch, so
        ``queries / batches`` is the amortization factor.
    ``reused_queries`` / ``cache_hits``
        Reuse accounting: queries answered without traversing the index
        (``reused_queries``, always ``<= queries``; such queries charge
        no ``nodes_visited``), and the number of batched calls that
        answered any that way (``cache_hits``).  Two paths reuse: the
        nested-radius cache, which filters a cached larger-radius
        result, and ICP's nearest-neighbor batches, which keep each
        answer a certificate proves unchanged since the previous
        iteration (:meth:`~repro.core.twostage.TwoStageKDTree.nn_batch_anchored`).
        ``queries - reused_queries`` is the fresh-search count, so
        DSE/accelerator work models can tell executed traversals from
        derived results.
    ``csr_results``
        Radius queries whose results were delivered CSR-natively
        (``NeighborSearcher.radius_batch_csr`` — flat indices/offsets/
        distances handed to the consumer with no per-query list
        materialization on the delivery path).  The list view
        ``NeighborSearcher.radius_batch`` does not charge it; the
        profiler's extended report shows it, and
        ``tests/registration/test_csr_native.py::TestStatsAccounting``
        pins it.
    """

    nodes_visited: int = 0
    traversal_steps: int = 0
    pruned_subtrees: int = 0
    leader_checks: int = 0
    queries: int = 0
    results_returned: int = 0
    batches: int = 0
    reused_queries: int = 0
    cache_hits: int = 0
    csr_results: int = 0

    def merge(self, other: "SearchStats") -> None:
        """Fold another accumulator into this one.

        Iterates the declared dataclass fields, so a counter added to
        the class definition participates in merging automatically —
        it cannot silently drop out the way a hand-maintained field
        list could (``tests/kdtree/test_stats.py`` pins this).
        """
        for field_ in fields(self):
            setattr(
                self,
                field_.name,
                getattr(self, field_.name) + getattr(other, field_.name),
            )

    def reset(self) -> None:
        """Zero all counters (every declared field, automatically)."""
        for field_ in fields(self):
            setattr(self, field_.name, field_.default)

    def as_dict(self) -> dict:
        """Field name -> value for every declared counter.

        The telemetry layer attaches these as per-span counter deltas;
        like :meth:`merge`/:meth:`reset` it enumerates the dataclass
        fields so new counters flow through automatically.
        """
        return {field_.name: getattr(self, field_.name) for field_ in fields(self)}

    @property
    def nodes_per_query(self) -> float:
        """Average nodes visited per query (0 when no queries ran)."""
        if self.queries == 0:
            return 0.0
        return self.nodes_visited / self.queries

    @property
    def total_work(self) -> int:
        """All distance computations: node visits plus leader checks."""
        return self.nodes_visited + self.leader_checks

    def __repr__(self) -> str:
        reused = (
            f", reused_queries={self.reused_queries}"
            if self.reused_queries
            else ""
        )
        return (
            f"SearchStats(queries={self.queries}, "
            f"nodes_visited={self.nodes_visited}, "
            f"traversal_steps={self.traversal_steps}, "
            f"pruned_subtrees={self.pruned_subtrees}, "
            f"leader_checks={self.leader_checks}{reused})"
        )
