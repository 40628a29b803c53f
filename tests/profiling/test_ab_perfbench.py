"""Tests for ``tools/ab_perfbench.py``'s pair statistics and report."""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "ab_perfbench.py"


@pytest.fixture(scope="module")
def ab():
    """Import ``tools/ab_perfbench.py`` (not a package) by file path."""
    spec = importlib.util.spec_from_file_location("ab_perfbench", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parse_seeds(ab):
    assert ab.parse_seeds("201-204,9") == [201, 202, 203, 204, 9]
    assert ab.parse_seeds("5") == [5]


def test_nine_of_ten_wins_and_the_parent_spread(ab):
    parent = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]
    change = [p - 10.0 for p in parent]
    change[3] = 200.0  # one loss
    row = ab.compare(parent, change, "lower")
    assert (row["wins"], row["ties"], row["pairs"]) == (9, 0, 10)
    assert row["share_rule"] and row["iqr_rule"]
    assert row["parent"] == (104.5, 102.25, 106.75)


def test_ties_count_for_neither_side(ab):
    parent = [10.0] * 10
    change = [9.0] * 8 + [10.0] * 2
    row = ab.compare(parent, change, "lower")
    assert (row["wins"], row["ties"]) == (8, 2)
    assert not row["share_rule"]


def test_gain_within_the_parent_spread_fails_the_iqr_rule(ab):
    parent = [90.0, 95.0, 100.0, 105.0, 110.0]
    change = [p - 1.0 for p in parent]
    row = ab.compare(parent, change, "lower")
    assert row["share_rule"] and not row["iqr_rule"]


def test_higher_is_better(ab):
    row = ab.compare([1.0, 1.0, 1.0], [2.0, 2.0, 2.0], "higher")
    assert row["wins"] == 3 and row["share_rule"] and row["iqr_rule"]
    assert ab.compare([1.0, 1.0, 1.0], [2.0, 2.0, 2.0], "lower")["wins"] == 0


def test_report_flags_digests_and_prints_raw_medians(ab):
    def run(p50, digest):
        return {
            "correct": True,
            "metrics": {"op_ms.p50": p50, "ok_ratio": 1.0},
            "digest": digest,
            "wall_clock": {"op_ms.p50": p50 / 2, "kernel_ms.p50": 2.0},
        }

    runs = [
        {"seed": 1, "parent": run(10.0, "aa" * 32), "change": run(9.0, "aa" * 32)},
        {"seed": 2, "parent": run(11.0, "aa" * 32), "change": run(8.0, "bb" * 32)},
    ]
    lines = ab.report(runs, {"ok_ratio": "higher"})
    text = "\n".join(lines)
    assert "equal (aaaaaaaa / aaaaaaaa)" in text
    assert "DIFFER (aaaaaaaa / bbbbbbbb)" in text
    (p50,) = [line for line in lines if line.startswith("op_ms.p50 ")]
    assert " 2/2 " in p50
    (ok,) = [line for line in lines if line.startswith("ok_ratio ")]
    assert " 0/2 " in ok and "    2 " in ok  # two ties
    (raw,) = [line for line in lines if line.startswith("wall_clock.kernel_ms.p50")]
    assert raw.split()[1:] == ["2", "2"]


def test_verdict_against_the_bound(ab):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert ab.verdict(parent, [p * 1.3 for p in parent], "lower", 0.25) == "WORSE"
    assert ab.verdict(parent, [p * 1.1 for p in parent], "lower", 0.25) == "ok"
    assert ab.verdict(parent, [p * 0.7 for p in parent], "higher", 0.25) == "WORSE"
    assert ab.verdict(parent, [p * 1.3 for p in parent], "higher", 0.25) == "ok"
    assert ab.verdict([0.5] * 4, [0.5] * 4, "higher", 0.05) == "ok"


def test_verdict_wide_parent_spread_is_unresolved(ab):
    parent = [60.0, 80.0, 100.0, 120.0, 140.0]  # IQR 40 > 0.25 * 100
    assert ab.verdict(parent, [p - 5.0 for p in parent], "lower", 0.25) == "unresolved"
    # Unless every change run beats every parent run.
    assert ab.verdict(parent, [55.0] * 5, "lower", 0.25) == "ok"
    # A median worse by more than the bound is WORSE whatever the spread.
    assert ab.verdict(parent, [p + 30.0 for p in parent], "lower", 0.25) == "WORSE"


def test_report_prints_the_verdict_for_bounded_metrics(ab):
    def run(p50, ate):
        return {
            "correct": True,
            "metrics": {"op_ms.p50": p50, "ate_m": ate, "search.self_ms": p50},
            "digest": "aa" * 32,
            "wall_clock": {"op_ms.p50": p50},
        }

    runs = [
        {"seed": s, "parent": run(100.0 + s, 1.0), "change": run(130.0 + s, 1.0)}
        for s in range(4)
    ]
    lines = ab.report(runs, {}, {"op_ms.p50": 0.25, "ate_m": 0.05})
    (p50,) = [line for line in lines if line.startswith("op_ms.p50 ")]
    (ate,) = [line for line in lines if line.startswith("ate_m ")]
    (layer,) = [line for line in lines if line.startswith("search.self_ms ")]
    assert p50.split()[-1] == "WORSE"
    assert ate.split()[-1] == "ok"
    assert layer.split()[-1] == "-"
