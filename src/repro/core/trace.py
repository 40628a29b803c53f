"""Search traces.

The accelerator model (:mod:`repro.accel`) is trace-driven: the functional
two-stage search records, for every query, how much front-end (top-tree)
and back-end (leaf-set) work it performed, and the timing/energy models
replay those records against a hardware configuration.  The trace is also
what the redundancy study (Fig. 6) and the memory-traffic analysis
(Fig. 13) consume.

A trace takes one of two forms.  :class:`TraceTable` is the columnar
one: a few int/bool arrays over a batch's queries and their leaf
visits.  Every batch search with ``trace=`` hands one back, and every
accelerator model reads it.  The single-query depth-first searches
(:meth:`~repro.core.twostage.TwoStageKDTree.nn`, ``.radius``, ``.knn``
and the approximate search built on them) record one
:class:`QueryTrace` per query, with a :class:`LeafVisitRecord` per leaf
visit.  They are the reference the batched capture is tested against;
:meth:`TraceTable.from_records` converts them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable, Sequence

import numpy as np

__all__ = ["LeafVisitRecord", "QueryTrace", "TraceTable"]


@dataclass
class LeafVisitRecord:
    """One visit of a query to one leaf set of the two-stage tree.

    ``scanned`` counts brute-force distance computations (leaf children on
    the precise path, or the leader's result set on the approximate path).
    ``leader_checks`` counts distance computations against the leader
    buffer (zero in exact mode).  ``pruned`` leaf visits were popped from
    the traversal stack but skipped by the bounding test — the back-end
    never sees them.
    """

    leaf_id: int
    scanned: int = 0
    approximate: bool = False
    leader_checks: int = 0
    became_leader: bool = False
    pruned: bool = False
    result_size: int = 0


@dataclass
class QueryTrace:
    """Work performed by a single query on the two-stage tree.

    ``toptree_visits`` counts fully processed top-tree nodes (the
    front-end Recursion Unit iterates once per such node);
    ``toptree_bypassed`` counts nodes popped but pruned by the bounding
    test (candidates for the RU's node-bypassing optimization);
    ``stack_pushes`` counts query-stack pushes (traffic to the Query
    Stack Buffer).
    """

    toptree_visits: int = 0
    toptree_bypassed: int = 0
    stack_pushes: int = 0
    leaf_visits: list[LeafVisitRecord] = field(default_factory=list)
    results: int = 0

    @property
    def leaf_scanned(self) -> int:
        """Total brute-force distance computations in the back-end."""
        return sum(v.scanned for v in self.leaf_visits)

    @property
    def leader_checks(self) -> int:
        return sum(v.leader_checks for v in self.leaf_visits)

    @property
    def nodes_visited(self) -> int:
        """Front-end + back-end distance computations (Fig. 6 unit)."""
        return self.toptree_visits + self.leaf_scanned

    @property
    def active_leaf_visits(self) -> list[LeafVisitRecord]:
        """Leaf visits that actually reached the back-end (not pruned)."""
        return [v for v in self.leaf_visits if not v.pruned]


_QUERY_COLUMNS = ("toptree_visits", "toptree_bypassed", "stack_pushes", "results")
_VISIT_COLUMNS = (
    "leaf_id",
    "scanned",
    "pruned",
    "result_size",
    "leader_checks",
    "approximate",
    "became_leader",
)
_FLAG_COLUMNS = ("pruned", "approximate", "became_leader")


@dataclass(frozen=True, eq=False)
class TraceTable:
    """The traces of a batch of queries, one array per field.

    Per query, in row order: ``toptree_visits``, ``toptree_bypassed``,
    ``stack_pushes`` and ``results``, the :class:`QueryTrace` counts.
    Per leaf visit, each query's visits in its pop order: ``leaf_id``,
    ``scanned``, ``pruned``, ``result_size``, ``leader_checks``,
    ``approximate`` and ``became_leader``, the :class:`LeafVisitRecord`
    fields.  Query ``i``'s visits are ``offsets[i]:offsets[i + 1]``.
    Counts are int64 and flags bool.  Two tables are equal when every
    column is.
    """

    toptree_visits: np.ndarray
    toptree_bypassed: np.ndarray
    stack_pushes: np.ndarray
    results: np.ndarray
    offsets: np.ndarray
    leaf_id: np.ndarray
    scanned: np.ndarray
    pruned: np.ndarray
    result_size: np.ndarray
    leader_checks: np.ndarray
    approximate: np.ndarray
    became_leader: np.ndarray

    @property
    def n_queries(self) -> int:
        return len(self.offsets) - 1

    @property
    def visit_counts(self) -> np.ndarray:
        """Leaf visits per query, pruned ones included."""
        return np.diff(self.offsets)

    @classmethod
    def from_records(cls, records: Sequence[QueryTrace]) -> "TraceTable":
        """The table of ``records``, one row per query, in order."""
        visits = [visit for record in records for visit in record.leaf_visits]
        counts = np.array([len(record.leaf_visits) for record in records], np.int64)
        offsets = np.zeros(len(records) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        columns = {
            name: np.array([getattr(r, name) for r in records], dtype=np.int64)
            for name in _QUERY_COLUMNS
        }
        for name in _VISIT_COLUMNS:
            dtype = bool if name in _FLAG_COLUMNS else np.int64
            columns[name] = np.array([getattr(v, name) for v in visits], dtype=dtype)
        return cls(offsets=offsets, **columns)

    @classmethod
    def concat(cls, tables: Iterable["TraceTable"]) -> "TraceTable":
        """One table holding the queries of ``tables`` in order."""
        tables = list(tables)
        if not tables:
            return cls.from_records([])
        bases = np.cumsum([0] + [len(t.leaf_id) for t in tables[:-1]])
        offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64)]
            + [t.offsets[1:] + base for t, base in zip(tables, bases)]
        )
        columns = {
            name: np.concatenate([getattr(t, name) for t in tables])
            for name in _QUERY_COLUMNS + _VISIT_COLUMNS
        }
        return cls(offsets=offsets, **columns)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceTable):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )
