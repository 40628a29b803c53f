"""Fig. 3 — design-space exploration: accuracy vs time with the Pareto
frontiers annotated.

The paper sweeps algorithmic/parametric knobs over KITTI and plots
translational error (Fig. 3a) and rotational error (Fig. 3b) against
normalized execution time.  Here the eight named design points DP1-DP8
run over a medium-density synthetic pair.  The *shape* claims checked:
a real trade-off space exists (no single config dominates), the cheap
end is faster, and the accuracy-oriented points reach low errors.
"""

import pytest

from repro.dse import explore
from repro.registration import DESIGN_POINT_NAMES, design_point

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def dse_report(medium_sequence):
    """DP1-DP8 evaluated over one medium-density pair."""
    configs = {name: design_point(name) for name in DESIGN_POINT_NAMES}
    return explore(configs, medium_sequence, max_pairs=1)


def test_fig03_design_space(dse_report):
    results = {r.name: r for r in dse_report.results}
    # Shape claim 1: a genuine trade-off space — both frontiers have
    # more than one point (no universally dominant configuration).
    assert len(dse_report.translational_frontier) >= 2
    # Shape claim 2: the accuracy-oriented DP7 beats the cheap DP1 on
    # translational error.
    assert (
        results["DP7"].translational_error < results["DP1"].translational_error
    )
    # Shape claim 3: the cheap DP1 runs faster than the expensive DP8.
    assert results["DP1"].time < results["DP8"].time
