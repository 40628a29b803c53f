"""Runs one workload: warm-up, timed passes, checks, metrics, report.

``--trace 0`` times whole passes over the workload with nothing wrapped
and reports the end-to-end metrics.  ``--trace 1`` times untraced
passes for half the budget, then passes with every layer's public entry
points wrapped (see ``instrument.py``), and reports the per-layer
metrics.  Every op and set-up is timed between two runs of the
reference kernel and reported at its nominal speed (see
``reference.py``); the raw wall-clock figures go to the record.
Either way the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record, with the result digest and the machine
fingerprint, goes to ``perfbench/results/``.  The exit code is 1 when
an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

import reference
import workloads
from instrument import PER_LAYER, instrumented, layer_metrics, layer_shares, wrapped_entry_points
from repro.profiling import StageProfiler
from spans import SpanRecorder

RESULTS = Path(__file__).resolve().parent / "results"

# (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("op_ms.p50", "ms", "lower"),
    ("op_ms.p90", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("ok_ratio", "ratio", "higher"),
    ("ate_m", "m", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

# The tail percentile reported, and how many samples must lie beyond it.
TAIL = 0.90
BEYOND_TAIL = 10
# Set-ups are timed before the first pass and after every pass, spread
# over the run like the ops: at least this many and this long each time,
# at most SETUPS_MAX.
SETUPS_MIN = 5
SETUPS_MIN_S = 0.25
SETUPS_MAX = 50
# Ops run once before timing (first-touch allocation, lazy imports).
WARMUP_OPS = 2
# No run starts a pass that would end past this, whatever it is asked.
HARD_LIMIT_S = 120.0
# Per-op layer self times plus other must match the op time this closely.
ACCOUNTING_TOLERANCE = 0.01


def samples_needed(q: float = TAIL, beyond: int = BEYOND_TAIL) -> int:
    """Fewest samples for which at least ``beyond`` lie above quantile ``q``."""
    return int(round(beyond / (1.0 - q)))


class Pass:
    """Latencies, verdicts, set-up times and outputs of one pass.

    ``latencies`` are wall-clock seconds; ``scaled`` are the same ops at
    the reference kernel's nominal speed, and so are ``setups``.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.kernels: list[float] = []
        self.ok: list[bool] = []
        self.raised = 0
        self.setups: list[float] = []
        self.outputs: list[list] = []
        self.finals: list = []


def run_pass(workload, recorder: SpanRecorder | None = None, first_op: int = 0) -> Pass:
    record = Pass()
    clock = time.perf_counter
    for unit in workload.units:
        # The set-up and then each op, with the kernel timed between them.
        kernels = [reference.time_kernel()]
        start = clock()
        session = workload.setup(unit)
        durations = [clock() - start]
        kernels.append(reference.time_kernel())
        steps = workload.steps(unit)
        outputs = []
        for step in steps:
            op_id = first_op + len(record.ok)
            start = clock()
            try:
                with recorder.op(op_id) if recorder else nullcontext():
                    output, ok = workload.op(session, step)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                record.raised += 1
                record.ok.append(False)
                break
            durations.append(clock() - start)
            kernels.append(reference.time_kernel())
            record.ok.append(ok)
            outputs.append(output)
        scaled = reference.scale_ops(durations, kernels)
        record.setups.append(scaled[0])
        record.latencies += durations[1:]
        record.scaled += scaled[1:]
        record.kernels += kernels
        record.outputs.append(outputs)
        if len(outputs) == len(steps):
            record.finals.append(workload.finish(session, unit, outputs))
    record.setups += time_setups(workload)
    return record


def warm_up(workload) -> None:
    """A few untimed ops and kernel runs before anything is timed."""
    unit = workload.units[0]
    session = workload.setup(unit)
    for step in workload.steps(unit)[:WARMUP_OPS]:
        reference.time_kernel()
        workload.op(session, step)


def time_setups(workload) -> list[float]:
    """Set-up times of every unit, repeated for at least SETUPS_MIN_S."""
    setups = []
    kernels = [reference.time_kernel()]
    while len(setups) < SETUPS_MAX and (
        len(setups) < SETUPS_MIN or sum(setups) < SETUPS_MIN_S
    ):
        for unit in workload.units:
            start = time.perf_counter()
            workload.setup(unit)
            setups.append(time.perf_counter() - start)
            kernels.append(reference.time_kernel())
    return reference.scale_ops(setups, kernels)


def run_passes(workload, budget_s: float, min_ops: int, recorder=None) -> list[Pass]:
    """Whole passes until ``min_ops`` ops ran and another would overrun the budget."""
    passes: list[Pass] = []
    elapsed = 0.0
    while True:
        start = time.perf_counter()
        first_op = sum(len(p.ok) for p in passes)
        passes.append(run_pass(workload, recorder, first_op))
        elapsed += time.perf_counter() - start
        ops = sum(len(p.latencies) for p in passes)
        next_end = elapsed + elapsed / len(passes)
        if (ops >= min_ops and next_end > budget_s) or next_end > HARD_LIMIT_S:
            return passes


def _same_outputs(a: list, b: list) -> bool:
    return len(a) == len(b) and all(
        len(x) == len(y) and all(np.array_equal(u, v) for u, v in zip(x, y))
        for x, y in zip(a, b)
    )


def check(passes: list[Pass], reference: Pass | None = None) -> list[str]:
    """Per-unit output checks, and bit-identity of every pass to the reference."""
    failures = []
    reference = reference or passes[0]
    for index, record in enumerate(passes):
        if record.raised:
            failures.append(f"pass {index}: {record.raised} op(s) raised")
        for final in record.finals:
            failures += final.failures
        if not _same_outputs(record.outputs, reference.outputs):
            failures.append(f"pass {index}: outputs differ from the reference pass")
    return failures


def percentile_ms(latencies: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies) * 1e3, 100 * q))


def end_to_end(passes: list[Pass], setups: list[float]) -> dict[str, float]:
    latencies = [t for p in passes for t in p.scaled]
    attempted = sum(len(p.ok) for p in passes)
    ates = [f.ate for f in passes[0].finals if f.ate is not None]
    return {
        "op_ms.p50": percentile_ms(latencies, 0.5),
        "op_ms.p90": percentile_ms(latencies, TAIL),
        "ops_per_s": len(latencies) / sum(latencies),
        "ok_ratio": sum(sum(p.ok) for p in passes) / attempted,
        # accel_trace has no trajectory; README.md explains the constant.
        "ate_m": float(np.mean(ates)) if ates else 1.0,
        "setup_s": statistics.median(setups + [s for p in passes for s in p.setups]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def wall_clock(passes: list[Pass]) -> dict[str, float]:
    """The unscaled op figures and the reference kernel's median time."""
    latencies = [t for p in passes for t in p.latencies]
    return {
        "op_ms.p50": percentile_ms(latencies, 0.5),
        "op_ms.p90": percentile_ms(latencies, TAIL),
        "ops_per_s": len(latencies) / sum(latencies),
        "kernel_ms.p50": percentile_ms([k for p in passes for k in p.kernels], 0.5),
    }


def _ladder_and_program(finals) -> tuple[dict, StageProfiler, float]:
    """Recovery-ladder totals and the program's own timing view."""
    ladder = {"pairs": 0, "unhealthy": 0, "retries": 0, "recovered": 0, "bridged": 0}
    program = StageProfiler()
    loop_seconds = 0.0
    for final in finals:
        stats = final.stats
        if stats is not None:
            ladder["pairs"] += stats.n_pairs
            ladder["unhealthy"] += stats.n_unhealthy
            ladder["retries"] += stats.n_reseeded + stats.n_widened
            ladder["recovered"] += stats.n_recovered
            ladder["bridged"] += stats.n_bridged
        program.merge(final.profiler)
        loop_seconds += final.loop_seconds
    return ladder, program, loop_seconds


def traced(workload, budget_s: float, untraced: Pass):
    """Passes under the wrappers: per-layer metrics, shares and checks."""
    recorder = SpanRecorder()
    with instrumented(recorder):
        passes = run_passes(workload, budget_s, 1, recorder)
    failures = check(passes, reference=untraced)
    leftover = wrapped_entry_points()
    if leftover:
        failures.append(f"wrappers left installed: {leftover}")
    accounting = recorder.accounting_error()
    if accounting > ACCOUNTING_TOLERANCE:
        failures.append(f"layer self times miss op time by {accounting:.2%}")

    ladder, program, loop_seconds = _ladder_and_program(
        [f for p in passes for f in p.finals]
    )
    # Span times are wall clock; one factor brings them to nominal speed.
    speed = sum(t for p in passes for t in p.scaled) / sum(
        t for p in passes for t in p.latencies
    )
    metrics = layer_metrics(recorder, ladder, speed)
    shares = layer_shares(recorder)
    op_time = sum(root.duration for root in recorder.ops)
    loop_total = recorder.layer_totals().get("mapping.loop_closure", {"total": 0.0})["total"]
    traced_p50 = percentile_ms([t for p in passes for t in p.scaled], 0.5)
    metrics.update(
        {
            "trace.op_ms.p50": traced_p50,
            "trace.overhead_ratio": traced_p50 / percentile_ms(untraced.scaled, 0.5),
            "trace.accounting_error": accounting,
            "xcheck.search_share": shares.get("search", 0.0),
            "xcheck.search_share_program": program.kdtree_fractions()["search"],
            "xcheck.loop_share": loop_total / op_time,
            "xcheck.loop_share_program": loop_seconds / op_time,
        }
    )
    return passes, metrics, shares, failures, recorder


def fingerprint(nproc: int) -> dict:
    return {
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OMP_NUM_THREADS"),
    }


def main(nproc: int, argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the registration/SLAM stack.")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, args.seed)
    warm_up(workload)
    setups = time_setups(workload)
    shares = recorder = None
    if args.trace:
        untraced = run_passes(workload, args.seconds / 2, 1)
        traced_passes, metrics, shares, failures, recorder = traced(
            workload, args.seconds / 2, untraced[0]
        )
        failures = check(untraced) + failures
        passes = untraced + traced_passes
    else:
        passes = run_passes(workload, args.seconds, samples_needed())
        metrics = end_to_end(passes, setups)
        failures = check(passes)

    attempted = sum(len(p.ok) for p in passes)
    failed = sum(p.raised for p in passes) + len(failures)
    correct = not failures and failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": sum(len(p.latencies) for p in passes),
        "passes": len(passes),
        "digest_sha256": workloads.digest(passes[0].finals),
        "failures": failures,
        "fingerprint": fingerprint(nproc),
        "metrics": metrics,
        "wall_clock": wall_clock(passes),
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if recorder is not None:
        recorder.write_jsonl(
            str(RESULTS / f"{stem}.spans.jsonl"),
            {"workload": args.workload, "seed": args.seed},
        )

    print(
        f"{args.workload} seed={args.seed}: {record['samples']} ops in "
        f"{record['passes']} passes, digest sha256={record['digest_sha256']}"
    )
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    if shares:
        tail = recorder.tail_shares(TAIL)
        print(f"{'layer':<30} {'self/op time':>12} {'in p90 tail':>12}")
        for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<28} {share:12.1%} {tail.get(layer, 0.0):12.1%}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1
