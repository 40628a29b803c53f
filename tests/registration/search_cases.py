"""The search configurations the backend suites run.

Each suite runs every backend in
:data:`repro.registration.search.BACKENDS` at its own leaf size, and the
two-stage tree again at both ends of the paper's leaf-size sweep
(Sec. 4.1): leaf size 1, whose top tree splits down to single points
(the classic KD-tree: top-tree nodes hold nearly every point, and a
leaf set holds about one), and one leaf set that holds the whole cloud,
whose top tree is empty.  Exact search must not depend on the tree's
shape, so the two ends ride through the same checks as the backends:
duplicates and ties then straddle many top nodes, or never leave a
single leaf scan.
"""

import pytest

from repro.registration.search import BACKENDS, SearchConfig

# Above every test cloud's size, so ``from_leaf_size`` picks top height 0.
WHOLE_CLOUD = 1 << 20


def search_cases(leaf_size=SearchConfig.leaf_size, backends=BACKENDS):
    """``(backend, leaf_size)`` params: each of ``backends`` at
    ``leaf_size`` (ids: the backend names), then the two-stage tree at
    leaf size 1 and as one whole-cloud leaf set."""
    return [pytest.param(backend, leaf_size, id=backend) for backend in backends] + [
        pytest.param("twostage", 1, id="twostage-leaf1"),
        pytest.param("twostage", WHOLE_CLOUD, id="twostage-one-leaf"),
    ]
