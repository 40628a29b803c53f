"""Unit tests for the query-trace records and the columnar trace table."""

import numpy as np

from repro.core import LeafVisitRecord, QueryTrace, TraceTable


class TestLeafVisitRecord:
    def test_defaults(self):
        visit = LeafVisitRecord(leaf_id=3)
        assert visit.leaf_id == 3
        assert visit.scanned == 0
        assert not visit.approximate
        assert not visit.pruned
        assert not visit.became_leader


class TestQueryTrace:
    def test_empty_trace_counts(self):
        trace = QueryTrace()
        assert trace.nodes_visited == 0
        assert trace.leaf_scanned == 0
        assert trace.leader_checks == 0
        assert trace.active_leaf_visits == []

    def test_aggregations(self):
        trace = QueryTrace(toptree_visits=5, toptree_bypassed=2, stack_pushes=9)
        trace.leaf_visits = [
            LeafVisitRecord(leaf_id=0, scanned=10, leader_checks=2),
            LeafVisitRecord(leaf_id=1, scanned=4),
            LeafVisitRecord(leaf_id=2, pruned=True),
        ]
        assert trace.leaf_scanned == 14
        assert trace.leader_checks == 2
        assert trace.nodes_visited == 5 + 14
        assert len(trace.active_leaf_visits) == 2

    def test_pruned_visits_excluded_from_active(self):
        trace = QueryTrace()
        trace.leaf_visits = [LeafVisitRecord(leaf_id=0, pruned=True)]
        assert trace.active_leaf_visits == []
        assert trace.nodes_visited == 0


def _records():
    return [
        QueryTrace(
            toptree_visits=5,
            toptree_bypassed=2,
            stack_pushes=9,
            results=3,
            leaf_visits=[
                LeafVisitRecord(leaf_id=4, scanned=10, leader_checks=2, result_size=3),
                LeafVisitRecord(leaf_id=1, pruned=True),
                LeafVisitRecord(
                    leaf_id=4, scanned=1, approximate=True, leader_checks=1
                ),
            ],
        ),
        QueryTrace(toptree_visits=1, stack_pushes=1),
        QueryTrace(
            toptree_visits=2,
            stack_pushes=3,
            results=1,
            leaf_visits=[LeafVisitRecord(leaf_id=0, scanned=7, became_leader=True)],
        ),
    ]


def _to_records(table):
    """The records a table stands for, rebuilt column by column."""
    return [
        QueryTrace(
            toptree_visits=int(table.toptree_visits[i]),
            toptree_bypassed=int(table.toptree_bypassed[i]),
            stack_pushes=int(table.stack_pushes[i]),
            results=int(table.results[i]),
            leaf_visits=[
                LeafVisitRecord(
                    leaf_id=int(table.leaf_id[j]),
                    scanned=int(table.scanned[j]),
                    approximate=bool(table.approximate[j]),
                    leader_checks=int(table.leader_checks[j]),
                    became_leader=bool(table.became_leader[j]),
                    pruned=bool(table.pruned[j]),
                    result_size=int(table.result_size[j]),
                )
                for j in range(table.offsets[i], table.offsets[i + 1])
            ],
        )
        for i in range(table.n_queries)
    ]


class TestTraceTable:
    def test_round_trip(self):
        records = _records()
        table = TraceTable.from_records(records)
        assert _to_records(table) == records
        assert table.n_queries == 3
        assert table.offsets.tolist() == [0, 3, 3, 4]
        assert table.visit_counts.tolist() == [3, 0, 1]
        assert table.leaf_id.dtype == np.int64 and table.pruned.dtype == bool

    def test_totals_are_column_sums(self):
        records = _records()
        table = TraceTable.from_records(records)
        assert int(table.scanned.sum()) == sum(r.leaf_scanned for r in records)
        assert int(table.leader_checks.sum()) == sum(r.leader_checks for r in records)
        assert int(table.toptree_visits.sum() + table.scanned.sum()) == sum(
            r.nodes_visited for r in records
        )
        assert np.count_nonzero(~table.pruned) == sum(
            len(r.active_leaf_visits) for r in records
        )

    def test_concat(self):
        records = _records()
        parts = [records[:1], [], records[1:2], records[2:]]
        table = TraceTable.concat(TraceTable.from_records(p) for p in parts)
        assert table == TraceTable.from_records(records)
        twice = TraceTable.concat([table, table])
        assert _to_records(twice) == records + records

    def test_zero_queries(self):
        empty = TraceTable.from_records([])
        assert empty.n_queries == 0 and len(empty.leaf_id) == 0
        assert empty.offsets.tolist() == [0]
        assert TraceTable.concat([]) == empty
        assert TraceTable.concat([empty, empty]) == empty
        table = TraceTable.from_records(_records())
        assert TraceTable.concat([empty, table, empty]) == table

    def test_zero_visits(self):
        records = [QueryTrace(toptree_visits=3, stack_pushes=4), QueryTrace()]
        table = TraceTable.from_records(records)
        assert table.offsets.tolist() == [0, 0, 0]
        assert len(table.leaf_id) == 0 and table.pruned.dtype == bool
        assert _to_records(table) == records

    def test_equality_is_column_wise(self):
        records = _records()
        table = TraceTable.from_records(records)
        assert table == TraceTable.from_records(_records())
        records[0].leaf_visits[2].approximate = False
        assert table != TraceTable.from_records(records)
        records = _records()
        records[1].results = 1
        assert table != TraceTable.from_records(records)
        assert table != records
