"""Controlled error injection into KD-tree search (paper Sec. 4.2, Fig. 7).

To quantify how tolerant registration is to inexact search, the paper
injects two kinds of errors:

* **k-th NN substitution** — NN search returns the k-th nearest
  neighbor instead of the nearest (Fig. 7a; ``k`` sweeps 1..9);
* **shell radius search** — radius search returns points inside the
  spherical shell ``<r1, r2>`` instead of the ball of radius ``r``
  (Fig. 7b; the paper sweeps r1 from 10 cm up with r2 >= r).

Injectors plug into :class:`~repro.registration.search.NeighborSearcher`
and post-process backend results, so any stage can be degraded
independently — dense stages (NE, RPCE) to demonstrate robustness,
sparse KPCE to demonstrate fragility.

An injector implements the three batch hooks ``nn_batch``,
``knn_batch`` and ``radius_batch_csr``, each taking the index, the
query batch and the stats to charge, so degraded stages ride the batch
query layer at full speed.  Radius results stay in the flat
:class:`~repro.core.ragged.RaggedNeighborhoods` form end-to-end — the
shell filter is one boolean mask over the flat distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["KthNeighborInjector", "ShellRadiusInjector", "IdentityInjector"]


@dataclass(frozen=True)
class IdentityInjector:
    """Pass-through injector (useful as a control in experiments)."""

    def nn_batch(self, index, queries, stats):
        return index.nn_batch(queries, stats)

    def knn_batch(self, index, queries, k, stats):
        return index.knn_batch(queries, k, stats)

    def radius_batch_csr(self, index, queries, r, stats, sort=False):
        return index.radius_batch_csr(queries, r, stats, sort=sort)


@dataclass(frozen=True)
class KthNeighborInjector:
    """Replace NN results with the k-th nearest neighbor.

    ``k = 1`` is exact.  kNN queries are shifted accordingly (the i-th
    requested neighbor becomes the (i + k - 1)-th true neighbor), and
    radius queries pass through untouched.
    """

    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")

    def nn_batch(self, index, queries, stats):
        indices, dists = index.knn_batch(queries, self.k, stats)
        # Rows can be padded with -1/inf (approximate backend); take the
        # last *valid* neighbor per row, (-1, inf) for an empty row.
        valid = indices >= 0
        last = np.maximum(valid.sum(axis=1) - 1, 0)[:, None]
        out_idx = np.take_along_axis(indices, last, axis=1)[:, 0]
        out_dist = np.take_along_axis(dists, last, axis=1)[:, 0]
        empty = ~valid.any(axis=1)
        out_idx[empty] = -1
        out_dist[empty] = np.inf
        return out_idx, out_dist

    def knn_batch(self, index, queries, k, stats):
        indices, dists = index.knn_batch(queries, k + self.k - 1, stats)
        return indices[:, self.k - 1 :], dists[:, self.k - 1 :]

    def radius_batch_csr(self, index, queries, r, stats, sort=False):
        return index.radius_batch_csr(queries, r, stats, sort=sort)


@dataclass(frozen=True)
class ShellRadiusInjector:
    """Replace radius-``r`` results with the shell ``<r1, r2>``.

    Points closer than ``r1`` are dropped and the search extends to
    ``r2``; with ``r1 = 0, r2 = r`` the search is exact.  NN/kNN queries
    pass through untouched.
    """

    r1: float
    r2: float

    def __post_init__(self):
        if self.r1 < 0 or self.r2 <= self.r1:
            raise ValueError("need 0 <= r1 < r2")

    def nn_batch(self, index, queries, stats):
        return index.nn_batch(queries, stats)

    def knn_batch(self, index, queries, k, stats):
        return index.knn_batch(queries, k, stats)

    def radius_batch_csr(self, index, queries, r, stats, sort=False):
        result = index.radius_batch_csr(queries, self.r2, stats, sort=sort)
        return result.mask(result.distances >= self.r1)
