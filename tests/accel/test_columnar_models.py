"""The columnar accelerator models against the per-visit-object oracle.

Every ``FrontEndReport``, ``BackEndReport``, ``CoupledTiming`` and
``SimulationResult`` field (traffic and energy included) of the models
that read :class:`~repro.core.trace.TraceTable` columns must equal the
object models of ``tests/accel/object_models.py`` on the same traces:
exact and approximate captures, NN and radius, leaf sizes 1/16/128 and
five hardware configurations, plus a zero-query and an all-pruned
workload.  The one batch former both back ends share,
:func:`repro.accel.backend.take_batch`, must form the batches of the two
formers it replaced on adversarial streams.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import (
    AcceleratorConfig,
    BackEndConfig,
    FrontEndConfig,
    SearchWorkload,
    TigrisSimulator,
    build_workload,
    simulate_coupled,
)
from repro.accel.backend import batch_keys, take_batch
from repro.core import (
    ApproximateSearch,
    ApproximateSearchConfig,
    LeafVisitRecord,
    QueryTrace,
    TraceTable,
    TwoStageKDTree,
)

from . import object_models as oracle

CONFIGS = {
    "mqsn": AcceleratorConfig(),
    "mqmn": AcceleratorConfig(backend=BackEndConfig(scheduling="mqmn")),
    "no-node-cache": AcceleratorConfig(backend=BackEndConfig(node_cache_entries=0)),
    "window-4-8pe-4su": AcceleratorConfig(
        pes_per_su=8, n_search_units=4, backend=BackEndConfig(issue_window=4)
    ),
    "3ru-no-bypass-no-forward": AcceleratorConfig(
        n_recursion_units=3,
        frontend=FrontEndConfig(bypassing=False, forwarding=False),
    ),
}
CAPTURES = [
    (capture, kind, leaf_size)
    for capture in ("exact", "approximate")
    for kind in ("nn", "radius")
    for leaf_size in (1, 16, 128)
]


def _cloud():
    rng = np.random.default_rng(2019)
    points = rng.normal(size=(900, 3)) * 3.0
    # Clustered repeats so followers fire on the approximate path.
    queries = np.vstack(
        [
            rng.normal(size=(120, 3)) * 3.0,
            points[:40],
            np.repeat(points[100:130], 3, axis=0) + rng.normal(size=(90, 3)) * 0.01,
        ]
    )
    return points, queries


def _records(tree, queries, kind, approx):
    """The depth-first searches' QueryTrace records, row by row."""
    searcher = tree if approx is None else ApproximateSearch(tree, approx)
    records = []
    for query in queries:
        if kind == "nn":
            searcher.nn(query, trace=records)
        else:
            searcher.radius(query, 1.0, trace=records)
    return records


@pytest.fixture(scope="module")
def captures():
    """``{(capture, kind, leaf size): (workload, records)}``."""
    points, queries = _cloud()
    out = {}
    for capture, kind, leaf_size in CAPTURES:
        approx = ApproximateSearchConfig() if capture == "approximate" else None
        tree = TwoStageKDTree.from_leaf_size(points, leaf_size)
        workload = build_workload(
            points, queries, kind=kind, radius=1.0, tree=tree, approx=approx
        )
        out[capture, kind, leaf_size] = workload, _records(tree, queries, kind, approx)
    return out


def _assert_models_match(workload, records, config):
    got = TigrisSimulator(config).simulate(workload)
    expected = oracle.simulate(records, workload.name, config)
    assert got.frontend == expected.frontend
    assert got.backend == expected.backend
    assert got == expected
    assert simulate_coupled(workload, config) == oracle.simulate_coupled(
        records, config
    )


@pytest.mark.parametrize("key", CAPTURES, ids=lambda key: "-".join(map(str, key)))
def test_capture_is_the_records_table(captures, key):
    workload, records = captures[key]
    assert workload.trace == TraceTable.from_records(records)
    if key[0] == "approximate" and key[2] > 1:
        assert workload.trace.approximate.any()


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("key", CAPTURES, ids=lambda key: "-".join(map(str, key)))
def test_reports_equal_the_object_models(captures, key, config):
    workload, records = captures[key]
    _assert_models_match(workload, records, CONFIGS[config])


def _workload(records, name):
    return SearchWorkload(
        name=name,
        kind="nn",
        trace=TraceTable.from_records(records),
        tree_n=64,
        top_height=3,
        n_leaf_sets=8,
        mean_leaf_size=8.0,
    )


@pytest.mark.parametrize("config", list(CONFIGS))
def test_zero_query_workload(config):
    points, _ = _cloud()
    workload = build_workload(points, np.empty((0, 3)), kind="nn", leaf_size=16)
    assert workload.n_queries == 0
    _assert_models_match(workload, [], CONFIGS[config])
    result = TigrisSimulator(CONFIGS[config]).simulate(workload)
    assert result.cycles == 0 and result.backend.n_batches == 0


@pytest.mark.parametrize("config", list(CONFIGS))
def test_all_pruned_workload(config):
    records = [
        QueryTrace(
            toptree_visits=3,
            toptree_bypassed=q % 3,
            stack_pushes=5,
            results=1,
            leaf_visits=[
                LeafVisitRecord(leaf_id=(q + j) % 8, pruned=True) for j in range(q % 4)
            ],
        )
        for q in range(40)
    ]
    workload = _workload(records, "all-pruned")
    _assert_models_match(workload, records, CONFIGS[config])
    result = TigrisSimulator(CONFIGS[config]).simulate(workload)
    assert result.frontend.cycles > 0 and result.backend.cycles == 0


# ----------------------------------------------------------------------
# The shared batch former against the two it replaced.
# ----------------------------------------------------------------------


def _stream_table(stream):
    """A one-query table whose leaf visits are ``stream``'s
    ``(leaf id, approximate)`` pairs, with the matching records."""
    visits = [
        LeafVisitRecord(leaf_id=leaf, approximate=approx) for leaf, approx in stream
    ]
    return TraceTable.from_records([QueryTrace(leaf_visits=visits)]), visits


def _config(n_pes, scheduling, window):
    return AcceleratorConfig(
        pes_per_su=n_pes,
        backend=BackEndConfig(scheduling=scheduling, issue_window=window),
    )


def _drain(stream, n_pes, scheduling, window, arrivals=None):
    """Batches (as stream positions) ``take_batch`` forms; with
    ``arrivals`` the queue grows by ``arrivals[j]`` entries before the
    j-th take (the coupled model's arrival limit), then by the rest."""
    table, _ = _stream_table(stream)
    config = _config(n_pes, scheduling, window)
    keys, window = batch_keys(table, np.arange(len(stream)), config)
    items = list(range(len(stream)))
    arrivals = deque(arrivals or [])
    batches, head, arrived = [], 0, 0
    while head < len(items):
        count = arrivals.popleft() if arrivals else len(items)
        arrived = min(len(items), arrived + count)
        if head == arrived:
            continue
        size = take_batch(keys, items, head, arrived, n_pes, window)
        batches.append(items[head : head + size])
        head += size
    return batches


def _decoupled_oracle(stream, n_pes, scheduling, window):
    _, visits = _stream_table(stream)
    position = {id(visit): i for i, visit in enumerate(visits)}
    return [
        [position[id(visit)] for visit in batch]
        for batch in oracle.form_batches(visits, n_pes, scheduling, window)
    ]


def _coupled_oracle(stream, n_pes, scheduling, window, arrivals):
    _, visits = _stream_table(stream)
    position = {id(visit): i for i, visit in enumerate(visits)}
    arrivals = deque(arrivals)
    buffer, cursor, batches = deque(), 0, []
    while cursor < len(visits) or buffer:
        count = arrivals.popleft() if arrivals else len(visits)
        for visit in visits[cursor : cursor + count]:
            buffer.append((0, visit))
        cursor = min(len(visits), cursor + count)
        if not buffer:
            continue
        batch = oracle.take_batch(buffer, n_pes, scheduling, window)
        batches.append([position[id(visit)] for _, visit in batch])
    return batches


STREAMS = {
    "single-leaf": [(3, False)] * 37,
    "single-leaf-followers": [(3, True)] * 11,
    "mixed-modes": [(2, i % 2 == 0) for i in range(25)],
    "mixed-modes-in-runs": [(2, (i // 3) % 2 == 1) for i in range(30)],
    "interleaved-leaves": [(i % 3, False) for i in range(31)],
    # The key's next match sits just inside, then just outside, a
    # window of 3 and one of 4.
    "window-edges": [(0, False), (1, False), (1, False), (0, False), (1, False),
                     (1, False), (1, False), (0, False)] * 3,
    "one-visit": [(5, True)],
    "empty": [],
}


@pytest.mark.parametrize("scheduling", ["mqsn", "mqmn"])
@pytest.mark.parametrize("stream", list(STREAMS))
def test_batch_former_equals_both_old_formers(stream, scheduling):
    stream = STREAMS[stream]
    for n_pes in (1, 2, 3, 8):
        for window in (1, 2, 3, 4, 7, 8, 32):
            case = (n_pes, window)
            assert _drain(stream, n_pes, scheduling, window) == _decoupled_oracle(
                stream, n_pes, scheduling, window
            ), case
            for arrivals in ([1] * len(stream), [2, 0, 5, 1, 0, 3] * 8, [0, 0, 9]):
                got = _drain(stream, n_pes, scheduling, window, arrivals)
                assert got == _coupled_oracle(
                    stream, n_pes, scheduling, window, arrivals
                ), (case, arrivals)


@given(
    stream=st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=60),
    n_pes=st.integers(1, 6),
    window=st.integers(1, 9),
    scheduling=st.sampled_from(["mqsn", "mqmn"]),
    arrivals=st.lists(st.integers(0, 6), max_size=30),
)
@settings(max_examples=300)
def test_batch_former_on_random_streams(stream, n_pes, window, scheduling, arrivals):
    assert _drain(stream, n_pes, scheduling, window) == _decoupled_oracle(
        stream, n_pes, scheduling, window
    )
    assert _drain(stream, n_pes, scheduling, window, arrivals) == _coupled_oracle(
        stream, n_pes, scheduling, window, arrivals
    )
