"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Keep property-based tests fast and deterministic enough for CI while
# still exploring: 25 examples per property, no per-example deadline
# (tree builds can be slow on pathological draws).  ``deep`` runs the
# same properties 400 times; choose it with HYPOTHESIS_PROFILE=deep.
settings.register_profile(
    "ci",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "deep",
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def lidar_pair():
    """A cached consecutive LiDAR frame pair with ground truth.

    Session-scoped: frame synthesis costs ~50 ms but is reused by many
    registration and accelerator tests.
    """
    from repro.io import make_sequence

    sequence = make_sequence(n_frames=2, seed=3)
    return sequence.pair(0)


@pytest.fixture(scope="session")
def lidar_sequence():
    """A short cached synthetic sequence (4 frames)."""
    from repro.io import make_sequence

    return make_sequence(n_frames=4, seed=7)


@pytest.fixture(scope="session")
def cloud_with_normals():
    """A LiDAR frame with normals/curvature attached (cached)."""
    from repro.io import make_sequence
    from repro.registration import (
        NormalEstimationConfig,
        SearchConfig,
        build_searcher,
        estimate_normals,
    )

    sequence = make_sequence(n_frames=1, seed=11)
    cloud = sequence.frames[0]
    searcher = build_searcher(cloud.points, SearchConfig())
    return estimate_normals(cloud, searcher, NormalEstimationConfig(radius=0.6))
