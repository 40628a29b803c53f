"""Tests for the event-coupled FE/BE simulation."""

import numpy as np
import pytest

from repro.accel import (
    AcceleratorConfig,
    build_workload,
    simulate_backend,
    simulate_coupled,
    simulate_frontend,
)


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(9)
    points = rng.normal(size=(400, 3)) * 4.0
    queries = rng.normal(size=(150, 3)) * 4.0
    return build_workload(points, queries, kind="nn", leaf_size=32)


@pytest.fixture(scope="module")
def canonical_workload():
    rng = np.random.default_rng(9)
    points = rng.normal(size=(400, 3)) * 4.0
    queries = rng.normal(size=(150, 3)) * 4.0
    return build_workload(points, queries, kind="nn", leaf_size=1)


class TestCoupledBounds:
    def test_at_least_each_half(self, workload):
        config = AcceleratorConfig()
        coupled = simulate_coupled(workload, config)
        fe = simulate_frontend(workload, config)
        assert coupled.total_cycles >= fe.cycles
        assert coupled.total_cycles >= coupled.backend_finish
        assert coupled.frontend_cycles == fe.cycles

    def test_at_most_serial_sum(self, workload):
        """The coupled run can never exceed running FE fully, then BE."""
        config = AcceleratorConfig()
        coupled = simulate_coupled(workload, config)
        fe = simulate_frontend(workload, config)
        be = simulate_backend(workload, config)
        assert coupled.total_cycles <= fe.cycles + be.cycles + workload.n_queries

    def test_deterministic(self, workload):
        config = AcceleratorConfig()
        a = simulate_coupled(workload, config)
        b = simulate_coupled(workload, config)
        assert a.total_cycles == b.total_cycles


class TestStarvation:
    def test_slow_frontend_starves_backend(self, workload):
        """With one RU, leaf visits trickle in and the SUs idle —
        the coupled model must show it."""
        slow = AcceleratorConfig(n_recursion_units=1)
        coupled = simulate_coupled(workload, slow)
        assert coupled.backend_idle_cycles > 0
        # The run becomes front-end limited: the back-end finishes within
        # one final batch drain of the last front-end issue.
        max_leaf = int(workload.trace.scanned.max())
        assert coupled.total_cycles <= coupled.frontend_cycles + max_leaf + 8

    def test_fast_frontend_keeps_backend_busy(self, workload):
        fast = AcceleratorConfig(n_recursion_units=256)
        slow = AcceleratorConfig(n_recursion_units=1)
        assert (
            simulate_coupled(workload, fast).total_cycles
            < simulate_coupled(workload, slow).total_cycles
        )

    def test_canonical_tree_backend_near_idle(self, canonical_workload):
        """Acc-KD behaviour: almost no exhaustive work arrives."""
        coupled = simulate_coupled(canonical_workload, AcceleratorConfig())
        assert coupled.backend_finish < coupled.frontend_cycles

    def test_starvation_fraction_bounded(self, workload):
        coupled = simulate_coupled(workload, AcceleratorConfig())
        assert 0.0 <= coupled.starvation_fraction <= 1.0


class TestSchedulingModes:
    def test_mqmn_runs(self, workload):
        from repro.accel import BackEndConfig

        config = AcceleratorConfig(backend=BackEndConfig(scheduling="mqmn"))
        coupled = simulate_coupled(workload, config)
        assert coupled.total_cycles > 0
