"""A/B the benchmark between two checkouts, in alternating pairs.

Runs ``perfbench/run.py`` in a parent checkout and a change checkout,
one pair per seed, one run at a time; even pairs run the parent first,
odd pairs the change.  Then, for every metric the runs report, it
prints each side's median and quartiles, the change's wins and the
ties, and whether the gain rule holds: the change better in at least
nine of ten pairs (ties count for neither side) and the medians apart
by more than the parent's interquartile range, in the metric's better
direction (``BENCHMARK.json``).  For each end-to-end metric it adds a
no-regression verdict against that metric's ``bound``: ``WORSE`` when
the change's median is worse than the parent's by more than ``bound``
times the parent's median, ``unresolved`` when it is not but the
parent's interquartile range exceeds that margin and not every change
run beats every parent run, and ``ok`` otherwise.  Per pair it prints
whether the result digests are equal; below the metrics, the raw
``wall_clock`` medians (unscaled op figures and the reference kernel's
time) beside the scaled ones, so a shift in the machine-speed scaling
shows.

Make the parent checkout with ``git archive`` (not a worktree), e.g.::

    git archive HEAD~1 | tar -x -C /tmp/parent
    python tools/ab_perfbench.py --parent /tmp/parent --change . \\
        --workload odometry_frontend --seeds 201-210 --seconds 25

Nothing under ``perfbench/`` is changed; each run writes its record to
its own checkout's ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
GAIN_SHARE = 0.9


def parse_seeds(text: str) -> list[int]:
    """``"201-205,9"`` -> ``[201, 202, 203, 204, 205, 9]``."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: its metrics, digest and raw wall-clock figures."""
    completed = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode not in (0, 1) or not lines:
        raise RuntimeError(
            f"{checkout}: run failed ({completed.returncode}): {completed.stderr[-2000:]}"
        )
    summary = json.loads(lines[-1])
    record_path = checkout / "perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(record_path.read_text())
    return {
        "correct": summary["correct"],
        "metrics": {name: m["value"] for name, m in summary["metrics"].items()},
        "digest": record["digest_sha256"],
        "wall_clock": record["wall_clock"],
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Pairwise wins and the gain rule for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ties = sum(p == c for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    return {
        "parent": (p_median, p_q1, p_q3),
        "change": (c_median, c_q1, c_q3),
        "wins": wins,
        "ties": ties,
        "pairs": len(parent),
        "share_rule": wins >= math.ceil(GAIN_SHARE * len(parent)),
        "iqr_rule": sign * (p_median - c_median) > p_q3 - p_q1,
    }


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """No-regression verdict for one end-to-end metric with ``bound``."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_median, p_q3 = quartiles(parent)
    margin = bound * abs(p_median)
    if sign * (statistics.median(change) - p_median) > margin:
        return "WORSE"
    dominates = all(sign * (p - c) > 0 for p in parent for c in change)
    if p_q3 - p_q1 > margin and not dominates:
        return "unresolved"
    return "ok"


def metric_rules(checkout: Path) -> tuple[dict[str, str], dict[str, float]]:
    """Better direction per metric name and each end-to-end metric's
    bound, from ``BENCHMARK.json``."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    end_to_end = spec.get("end_to_end", [])
    better = {m["name"]: m["better"] for m in end_to_end + spec.get("per_layer", [])}
    bounds = {m["name"]: m["bound"] for m in end_to_end}
    return better, bounds


def report(
    runs: list[dict], better: dict[str, str], bounds: dict[str, float] | None = None
) -> list[str]:
    """Summary lines for pairs ``runs`` (each ``{"seed", "parent", "change"}``)."""
    bounds = bounds or {}
    lines = [f"{'pair':>4} {'seed':>6}  digests"]
    for i, pair in enumerate(runs):
        same = pair["parent"]["digest"] == pair["change"]["digest"]
        lines.append(
            f"{i:>4} {pair['seed']:>6}  {'equal' if same else 'DIFFER'} "
            f"({pair['parent']['digest'][:8]} / {pair['change']['digest'][:8]})"
        )
    lines.append("")
    lines.append(
        f"{'metric':<40} {'parent median [IQR]':>28} {'change median [IQR]':>28} "
        f"{'wins':>6} {'ties':>5}  9/10  IQR  bound"
    )
    names = sorted(set.intersection(*(set(p[s]["metrics"]) for p in runs for s in SIDES)))
    for name in names:
        values = [[p[side]["metrics"][name] for p in runs] for side in SIDES]
        direction = better.get(name, "lower")
        row = compare(*values, direction)
        cells = [
            "{:.4g} [{:.4g}–{:.4g}]".format(*row[side]) for side in SIDES
        ]
        no_regression = (
            verdict(*values, direction, bounds[name]) if name in bounds else "-"
        )
        lines.append(
            f"{name:<40} {cells[0]:>28} {cells[1]:>28} "
            f"{row['wins']:>3}/{row['pairs']:<2} {row['ties']:>5}  "
            f"{'yes' if row['share_rule'] else 'no':>4}  "
            f"{'yes' if row['iqr_rule'] else 'no':<3}  {no_regression}"
        )
    lines.append("")
    lines.append(f"{'unscaled':<40} {'parent median':>14} {'change median':>14}")
    for name in sorted(runs[0]["parent"]["wall_clock"]):
        medians = [
            statistics.median(p[side]["wall_clock"][name] for p in runs) for side in SIDES
        ]
        lines.append(f"{'wall_clock.' + name:<40} {medians[0]:>14.4g} {medians[1]:>14.4g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for i, seed in enumerate(args.seeds):
        pair = {"seed": seed}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            pair[side] = run_once(
                checkouts[side], args.workload, seed, args.seconds, args.trace
            )
            p50 = pair[side]["metrics"].get("op_ms.p50", float("nan"))
            print(
                f"pair {i} seed {seed} {side}: op_ms.p50 {p50:.2f} "
                f"correct={pair[side]['correct']}",
                flush=True,
            )
        runs.append(pair)
    print(f"\n{args.workload}, {len(runs)} pairs, --seconds {args.seconds} --trace {args.trace}")
    print("\n".join(report(runs, *metric_rules(checkouts["change"]))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
