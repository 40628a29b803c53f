"""Unit tests for the neighbor-search backends and wrapper."""

import numpy as np
import pytest

from repro.core import ApproximateSearch, TwoStageKDTree
from repro.kdtree import KDTree, SearchStats
from repro.profiling import StageProfiler
from repro.registration import SearchConfig, build_searcher
from repro.registration.search import BACKENDS


@pytest.fixture
def points(rng):
    return rng.normal(size=(150, 3))


class TestBackends:
    def test_canonical_backend(self, points):
        searcher = build_searcher(points, SearchConfig(backend="canonical"))
        assert isinstance(searcher.index, KDTree)

    def test_twostage_backend(self, points):
        searcher = build_searcher(points, SearchConfig(backend="twostage"))
        assert isinstance(searcher.index, TwoStageKDTree)

    def test_approximate_backend(self, points):
        searcher = build_searcher(points, SearchConfig(backend="approximate"))
        assert isinstance(searcher.index, ApproximateSearch)

    def test_bruteforce_backend(self, points):
        searcher = build_searcher(points, SearchConfig(backend="bruteforce"))
        idx, dist = searcher.nn_batch(points[3] + 0.001)
        assert idx.tolist() == [3]

    def test_all_backends_agree_on_nn(self, points, rng):
        queries = rng.normal(size=(10, 3))
        answers = {}
        for backend in ("canonical", "twostage", "bruteforce"):
            searcher = build_searcher(points, SearchConfig(backend=backend))
            answers[backend] = searcher.nn_batch(queries)[1]
        assert np.allclose(answers["canonical"], answers["bruteforce"])
        assert np.allclose(answers["twostage"], answers["bruteforce"])

    def test_all_backends_agree_on_radius(self, points, rng):
        query = rng.normal(size=3)
        sets = {}
        for backend in ("canonical", "twostage", "bruteforce"):
            searcher = build_searcher(points, SearchConfig(backend=backend))
            indices = searcher.radius_batch_csr(query, 0.9).indices
            sets[backend] = set(indices.tolist())
        assert sets["canonical"] == sets["bruteforce"] == sets["twostage"]

    def test_knn_wrapper(self, points, rng):
        searcher = build_searcher(points, SearchConfig())
        indices, dists = searcher.knn_batch(rng.normal(size=(3, 3)), 5)
        assert indices.shape == (3, 5)
        assert np.all(np.diff(dists, axis=1) >= 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(backend="gpu")
        with pytest.raises(ValueError):
            SearchConfig(backend="gridhash")
        with pytest.raises(ValueError):
            SearchConfig(leaf_size=0)

    def test_backend_list(self):
        # The parametrized backend suites read BACKENDS; pinning it here
        # makes a backend dropped by accident fail one named test.
        assert BACKENDS == ("canonical", "twostage", "approximate", "bruteforce")


class TestInstrumentation:
    def test_stats_accumulate(self, points, rng):
        stats = SearchStats()
        searcher = build_searcher(points, SearchConfig(), stats=stats)
        searcher.nn_batch(rng.normal(size=3))
        searcher.radius_batch_csr(rng.normal(size=3), 0.5)
        assert stats.queries == 2
        assert stats.batches == 2
        assert stats.nodes_visited > 0

    def test_profiler_charged(self, points, rng):
        profiler = StageProfiler()
        with profiler.stage("Normal Estimation"):
            searcher = build_searcher(points, SearchConfig(), profiler=profiler)
            searcher.nn_batch(rng.normal(size=3))
        timing = profiler.stages["Normal Estimation"]
        assert timing.kdtree_construction > 0
        assert timing.kdtree_search > 0
        assert timing.total >= timing.kdtree_search

    def test_build_time_recorded(self, points):
        searcher = build_searcher(points, SearchConfig())
        assert searcher.build_time > 0
