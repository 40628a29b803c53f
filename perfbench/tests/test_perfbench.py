"""Tests of the benchmark's own code: sampling, spans, verdicts, wrappers."""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERFBENCH))

import harness  # noqa: E402
import instrument  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from spans import OTHER, SpanRecorder  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class CountingWorkload:
    """One unit of ``n_steps`` instant ops; records how many passes ran."""

    def __init__(self, n_steps):
        self.units = ["unit"]
        self.n_steps = n_steps

    def steps(self, unit):
        return list(range(self.n_steps))

    def setup(self, unit):
        return None

    def op(self, session, step):
        return step, True

    def finish(self, session, unit, outputs):
        return workloads.Final(failures=[], digest=b"")


def test_tail_needs_one_hundred_samples():
    assert harness.samples_needed(0.90, 10) == 100
    samples = np.arange(1.0, 101.0)
    assert np.sum(samples > np.percentile(samples, 90)) >= 10


def test_runs_whole_passes_until_the_sample_floor(monkeypatch):
    monkeypatch.setattr(reference, "time_kernel", lambda: reference.NOMINAL_S)
    passes =harness.run_passes(CountingWorkload(7), budget_s=0.0, min_ops=100)
    assert len(passes) == 15
    assert sum(len(p.latencies) for p in passes) == 105


def test_self_time_of_nested_spans_under_verify():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    with recorder.op(0):
        clock.now = 1.0
        verify = recorder.begin("mapping.loop_closure")
        clock.now = 2.0
        match = recorder.begin("registration.match")
        clock.now = 3.0
        icp = recorder.begin("registration.icp")
        clock.now = 4.0
        search = recorder.begin("search")
        clock.now = 6.0
        recorder.end(search)
        clock.now = 7.0
        recorder.end(icp)
        clock.now = 8.0
        recorder.end(match)
        clock.now = 9.0
        recorder.end(verify)
        clock.now = 10.0
    assert [s.parent for s in (verify, match, icp, search)] == [0, 1, 2, 3]
    totals = recorder.layer_totals()
    for layer in ("mapping.loop_closure", "registration.match", "registration.icp", "search"):
        assert totals[layer]["self"] == pytest.approx(2.0)
    assert totals[OTHER]["self"] == pytest.approx(2.0)
    assert totals["mapping.loop_closure"]["total"] == pytest.approx(8.0)
    assert recorder.accounting_error() == 0.0

    ladder = dict(pairs=0, unhealthy=0, retries=0, recovered=0, bridged=0)
    metrics = instrument.layer_metrics(recorder, ladder)
    assert metrics["search.self_ms"] == pytest.approx(2000.0)
    assert metrics["mapping.loop_closure.total_ms"] == pytest.approx(8000.0)
    assert metrics["other.self_ms"] == pytest.approx(2000.0)


def test_accounting_flags_a_span_escaping_its_parent():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    with recorder.op(0):
        span = recorder.begin("search")
        clock.now = 1.0
        recorder.end(span)
        clock.now = 2.0
    span.end = 3.0  # a child outliving its op breaks the sum
    assert recorder.accounting_error() > harness.ACCOUNTING_TOLERANCE


def test_spans_outside_an_op_are_not_recorded():
    recorder = SpanRecorder(FakeClock())
    assert recorder.begin("search") is None
    assert recorder.spans == []


def _fake_driver(success, actions):
    stats = SimpleNamespace(pair_actions=[actions])
    result = SimpleNamespace(success=success, transformation=np.eye(4))
    return SimpleNamespace(push=lambda frame: result, stats=stats)


@pytest.mark.parametrize(
    "success, actions, ok",
    [
        (True, (), True),
        (True, ("reseed",), True),
        (True, ("reseed", "widen", "bridge"), False),
        (False, (), False),
    ],
)
def test_bridged_and_unsuccessful_pairs_are_not_ok(success, actions, ok):
    streaming = workloads.Streaming([], None)
    _, verdict = streaming.op(_fake_driver(success, actions), frame=None)
    assert verdict is ok


def test_ok_ratio_counts_bridged_pairs_against_attempts():
    record = harness.Pass()
    record.scaled = [0.1, 0.1, 0.1, 0.1]
    record.ok = [True, False, True, False]
    record.finals = [workloads.Final(failures=[], digest=b"", ate=0.5)]
    metrics = harness.end_to_end([record], setups=[0.01])
    assert metrics["ok_ratio"] == 0.5
    assert metrics["ops_per_s"] == pytest.approx(10.0)


def test_scaling_cancels_a_slow_spell_and_one_stalled_kernel_run():
    nominal = reference.NOMINAL_S
    # Ops and kernel both 1.5x slower: the scaled latencies do not move.
    slow = [1.5 * nominal] * 5
    assert reference.scale_ops([0.15] * 4, slow) == pytest.approx([0.1] * 4)
    # One kernel run stalled 5x: the median of the nearest four ignores it.
    kernels = [nominal, nominal, 5 * nominal, nominal, nominal]
    assert reference.scale_ops([0.1] * 4, kernels) == pytest.approx([0.1] * 4)
    # The only op takes the mean of the two kernel times around it.
    assert reference.scale_ops([0.2], [nominal, 3 * nominal]) == pytest.approx([0.1])
    with pytest.raises(ValueError):
        reference.scale_ops([0.1] * 4, kernels[:4])


def test_every_op_and_setup_is_scaled():
    record = harness.run_pass(CountingWorkload(3))
    assert len(record.latencies) == len(record.scaled) == 3
    assert len(record.kernels) == 5
    assert len(record.setups) >= harness.SETUPS_MIN
    assert all(t > 0 for t in record.kernels)


def test_check_flags_passes_that_differ():
    first, second = harness.Pass(), harness.Pass()
    first.outputs = [[np.eye(4), np.eye(4)]]
    second.outputs = [[np.eye(4), 2 * np.eye(4)]]
    assert harness.check([first, first]) == []
    assert harness.check([first, second]) == [
        "pass 1: outputs differ from the reference pass"
    ]


def test_wrappers_are_removed_after_the_traced_run():
    import repro.registration as registration
    import repro.registration.pipeline as pipeline
    from repro.registration.search import NeighborSearcher

    original_icp = pipeline.icp
    original_match = pipeline.Pipeline.match
    original_search = NeighborSearcher.nn_batch
    assert instrument.wrapped_entry_points() == []
    with instrument.instrumented(SpanRecorder()):
        wrapped = instrument.wrapped_entry_points()
        assert "repro.registration.pipeline.icp" in wrapped
        assert "repro.registration.icp" in wrapped
        assert pipeline.icp is not original_icp
        assert registration.icp is pipeline.icp
    assert instrument.wrapped_entry_points() == []
    assert pipeline.icp is original_icp
    assert registration.icp is original_icp
    assert pipeline.Pipeline.match is original_match
    assert NeighborSearcher.nn_batch is original_search


def test_wrappers_nest_match_icp_search_under_verify():
    from repro.io import make_sequence
    from repro.mapping import LoopCloser, urban_loop_pipeline
    from repro.mapping.keyframes import Keyframe

    sequence = make_sequence(n_frames=2, seed=3)
    pipeline = urban_loop_pipeline()
    states = [pipeline.preprocess(frame, with_features=False) for frame in sequence.frames]
    keyframes = [
        Keyframe(index, index, pose, state)
        for index, (pose, state) in enumerate(zip(sequence.poses, states))
    ]
    relative = np.linalg.inv(sequence.poses[0]) @ sequence.poses[1]
    recorder = SpanRecorder()
    with instrument.instrumented(recorder), recorder.op(0):
        LoopCloser(pipeline).verify(keyframes[1], keyframes[0], relative)

    by_id = {span.id: span for span in recorder.spans}

    def chain(span):
        names = []
        while span.parent is not None:
            names.append(span.name)
            span = by_id[span.parent]
        return names

    searches = [s for s in recorder.spans if s.name == "search"]
    assert searches
    assert chain(searches[0]) == [
        "search",
        "registration.icp",
        "registration.match",
        "mapping.loop_closure",
    ]
    assert recorder.accounting_error() < 1e-9
    assert instrument.wrapped_entry_points() == []


def test_benchmark_json_names_every_metric_the_code_reports():
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        harness.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        instrument.PER_LAYER
    )
