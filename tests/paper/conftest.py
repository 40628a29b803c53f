"""Shared inputs of the paper-claim tests.

Search workloads are traced query by query, so the DP4/DP7 workloads
and the medium-density sequence are built once per session and shared
across the figure files.  The sparse frame pair is ``tests/conftest.py``'s
``lidar_pair``.
"""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def medium_sequence():
    """Medium-density sequence (~6.3k points/frame; accuracy claims)."""
    from repro.io import default_test_model, make_sequence

    model = default_test_model(azimuth_steps=270, channels=24)
    return make_sequence(n_frames=3, seed=3, model=model)


def search_workloads(pair, normal_radius: float) -> dict:
    """One registration's search workloads on the three structures.

    Keys: ``"2skd"`` (leaf ~128), ``"kd"`` (leaf 1) and ``"approx"``
    (leaf ~128 plus leaders/followers at the paper's thresholds).
    """
    from repro.accel import registration_workload
    from repro.core import ApproximateSearchConfig

    source, target, _ = pair
    kwargs = dict(normal_radius=normal_radius, icp_iterations=5)
    return {
        "2skd": registration_workload(
            source.points, target.points, leaf_size=128, **kwargs
        ),
        "kd": registration_workload(
            source.points, target.points, leaf_size=1, **kwargs
        ),
        "approx": registration_workload(
            source.points, target.points, leaf_size=128,
            approx=ApproximateSearchConfig(), **kwargs
        ),
    }


@pytest.fixture(scope="session")
def dp7_workloads(lidar_pair):
    """DP7-flavoured workloads (wide NE r=0.75, Sec. 6.3)."""
    return search_workloads(lidar_pair, normal_radius=0.75)


@pytest.fixture(scope="session")
def dp4_workloads(lidar_pair):
    """DP4-flavoured workloads (tight NE r=0.30, Sec. 6.3's contrast)."""
    return search_workloads(lidar_pair, normal_radius=0.30)
