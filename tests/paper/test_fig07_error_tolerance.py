"""Fig. 7 — registration's tolerance to inexact KD-tree search.

Fig. 7a: translational error as NN search returns the k-th nearest
neighbor instead of the nearest, injected into the *dense* RPCE stage
and the *sparse* KPCE stage.
Fig. 7b: translational error as radius search returns the spherical
shell <r1, r2> instead of the ball r, injected into Normal Estimation.

Shape claims asserted: dense-stage errors (RPCE k-th NN, NE shell) are
statistically tolerated; sparse-stage errors (KPCE) hurt much more —
the asymmetry that licenses the approximate algorithm on NE/RPCE only.
"""

import pytest

from repro.geometry import metrics
from repro.registration import (
    ICPConfig,
    KeypointConfig,
    KthNeighborInjector,
    Pipeline,
    PipelineConfig,
    RPCEConfig,
    ShellRadiusInjector,
)

pytestmark = pytest.mark.slow

K_VALUES = (1, 2, 3, 5, 7, 9)
SHELLS = ((0.0, 0.6), (0.1, 0.75), (0.2, 0.75), (0.3, 0.75), (0.4, 0.9))


def dense_config(injectors) -> PipelineConfig:
    """ICP-only pipeline: isolates the dense NE/RPCE stages."""
    return PipelineConfig(
        icp=ICPConfig(
            rpce=RPCEConfig(max_distance=2.0),
            error_metric="point_to_plane",
            max_iterations=20,
        ),
        skip_initial_estimation=True,
        injectors=injectors,
    )


def frontend_config(injectors) -> PipelineConfig:
    """Full pipeline whose outcome hinges on KPCE (few ICP iterations)."""
    return PipelineConfig(
        keypoints=KeypointConfig(
            method="harris", params={"radius": 1.0, "threshold": 1e-5}
        ),
        icp=ICPConfig(rpce=RPCEConfig(max_distance=2.0), max_iterations=3),
        injectors=injectors,
    )


def trans_error(pair, config) -> float:
    source, target, gt = pair
    result = Pipeline(config).register(source, target)
    _, err = metrics.pair_errors(result.transformation, gt)
    return err


@pytest.fixture(scope="module")
def tolerance(medium_sequence):
    pair = medium_sequence.pair(0)
    rpce = {
        k: trans_error(pair, dense_config({"RPCE": KthNeighborInjector(k=k)}))
        for k in K_VALUES
    }
    kpce = {
        k: trans_error(pair, frontend_config({"KPCE": KthNeighborInjector(k=k)}))
        for k in K_VALUES
    }
    ne = {
        shell: trans_error(
            pair, dense_config({"Normal Estimation": ShellRadiusInjector(*shell)})
        )
        for shell in SHELLS
    }
    return rpce, kpce, ne


def test_fig07_error_tolerance(tolerance):
    rpce, kpce, ne = tolerance
    # Dense-stage tolerance: error grows slowly with k in RPCE.
    assert rpce[3] < rpce[1] + 0.25
    assert rpce[5] < rpce[1] + 0.5
    # NE shell searches are tolerated too.
    assert max(ne.values()) < ne[SHELLS[0]] + 0.5
    # Sparse KPCE is the fragile one: its degradation from k=1 to the
    # worst k exceeds RPCE's (the paper: KPCE's 2nd-NN already costs
    # ~40 % accuracy).
    kpce_degradation = max(kpce[k] - kpce[1] for k in K_VALUES)
    rpce_degradation = max(rpce[k] - rpce[1] for k in K_VALUES)
    assert kpce_degradation > rpce_degradation
