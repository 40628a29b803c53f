"""Unit tests for the front-end (RU) and back-end (SU) timing models."""

import numpy as np
import pytest

from repro.accel import (
    AcceleratorConfig,
    BackEndConfig,
    FrontEndConfig,
    build_workload,
    simulate_backend,
    simulate_frontend,
)
from repro.accel.frontend import query_frontend_cycles
from repro.core.trace import LeafVisitRecord, QueryTrace, TraceTable


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(2)
    points = rng.normal(size=(400, 3)) * 4.0
    queries = rng.normal(size=(120, 3)) * 4.0
    return build_workload(points, queries, kind="nn", leaf_size=32)


class TestFrontEndCycles:
    def test_single_query_cost_formula(self):
        trace = QueryTrace(toptree_visits=10, toptree_bypassed=4)
        trace.leaf_visits = [LeafVisitRecord(leaf_id=0), LeafVisitRecord(leaf_id=1)]
        table = TraceTable.from_records([trace, QueryTrace()])
        config = AcceleratorConfig()  # forwarding + bypassing
        # 1 (FQ) + 10 * 1 + 4 * 1 + 2 (CL issues); an empty query costs
        # its fetch.
        assert query_frontend_cycles(table, config).tolist() == [17, 1]

    def test_no_opt_costs_more(self):
        table = TraceTable.from_records(
            [QueryTrace(toptree_visits=10, toptree_bypassed=4)]
        )
        fast = AcceleratorConfig()
        slow = AcceleratorConfig(
            frontend=FrontEndConfig(bypassing=False, forwarding=False)
        )
        assert query_frontend_cycles(table, slow)[0] > query_frontend_cycles(
            table, fast
        )[0]

    def test_more_rus_reduce_makespan(self, workload):
        few = simulate_frontend(workload, AcceleratorConfig(n_recursion_units=4))
        many = simulate_frontend(workload, AcceleratorConfig(n_recursion_units=64))
        assert many.cycles < few.cycles
        # Total busy work is invariant to the RU count.
        assert many.busy_cycles == few.busy_cycles

    def test_utilization_bounded(self, workload):
        report = simulate_frontend(workload, AcceleratorConfig())
        assert 0.0 < report.utilization <= 1.0

    def test_traffic_populated(self, workload):
        report = simulate_frontend(workload, AcceleratorConfig())
        assert report.traffic.fe_query_queue == 2 * workload.n_queries
        assert report.traffic.query_buffer == workload.n_queries
        assert report.traffic.query_stack > 0
        assert report.traffic.points_buffer == workload.total_toptree_visits

    def test_optimizations_speed_up_frontend(self, workload):
        variants = {
            "no_opt": FrontEndConfig(bypassing=False, forwarding=False),
            "bypass": FrontEndConfig(bypassing=True, forwarding=False),
            "forward": FrontEndConfig(bypassing=True, forwarding=True),
        }
        cycles = {
            name: simulate_frontend(
                workload, AcceleratorConfig(frontend=fe)
            ).cycles
            for name, fe in variants.items()
        }
        assert cycles["no_opt"] > cycles["bypass"] > cycles["forward"]


class TestBackEnd:
    def test_more_pes_reduce_cycles(self, workload):
        few = simulate_backend(workload, AcceleratorConfig(pes_per_su=4))
        many = simulate_backend(workload, AcceleratorConfig(pes_per_su=64))
        assert many.cycles <= few.cycles

    def test_more_sus_reduce_cycles(self, workload):
        few = simulate_backend(workload, AcceleratorConfig(n_search_units=2))
        many = simulate_backend(workload, AcceleratorConfig(n_search_units=32))
        assert many.cycles <= few.cycles

    def test_compute_equals_scans_plus_checks(self, workload):
        report = simulate_backend(workload, AcceleratorConfig())
        expected = workload.total_leaf_scanned + workload.total_leader_checks
        assert report.distance_computations == expected

    def test_mqmn_at_least_as_fast_but_more_traffic(self, workload):
        mqsn = simulate_backend(
            workload,
            AcceleratorConfig(backend=BackEndConfig(scheduling="mqsn")),
        )
        mqmn = simulate_backend(
            workload,
            AcceleratorConfig(backend=BackEndConfig(scheduling="mqmn")),
        )
        assert mqmn.cycles <= mqsn.cycles
        assert (
            mqmn.traffic.points_buffer + mqmn.traffic.node_cache
            >= mqsn.traffic.points_buffer + mqsn.traffic.node_cache
        )

    def test_node_cache_reduces_points_traffic(self, workload):
        # Few SUs so each one interleaves several leaf sets — the reuse
        # pattern the cache exists for (with one leaf per SU every set
        # is fetched exactly once and nothing can hit).
        cached = simulate_backend(
            workload,
            AcceleratorConfig(
                n_search_units=2,
                backend=BackEndConfig(node_cache_entries=16),
            ),
        )
        uncached = simulate_backend(
            workload,
            AcceleratorConfig(
                n_search_units=2,
                backend=BackEndConfig(node_cache_entries=0),
            ),
        )
        assert cached.traffic.points_buffer < uncached.traffic.points_buffer
        assert uncached.node_cache_hits == 0
        assert cached.node_cache_hits > 0
        # The cache moves traffic, never destroys it.
        assert (
            cached.traffic.points_buffer + cached.traffic.node_cache
            == uncached.traffic.points_buffer + uncached.traffic.node_cache
        )

    def test_pruned_visits_do_not_reach_backend(self, workload):
        report = simulate_backend(workload, AcceleratorConfig())
        active_visits = np.count_nonzero(~workload.trace.pruned)
        assert workload.trace.pruned.any()
        assert report.traffic.be_query_buffer == active_visits

    def test_utilization_bounded(self, workload):
        report = simulate_backend(workload, AcceleratorConfig())
        assert 0.0 < report.utilization <= 1.0
