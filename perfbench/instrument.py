"""Layer wrappers for the traced run, applied from outside the program.

Every layer of the stack is entered through a few public functions and
methods.  :func:`instrumented` replaces each of them, for the duration of
a ``with`` block, by a wrapper that opens a span in a
:class:`~spans.SpanRecorder`, calls the original, and records counts read
from the call's return value.  Module-level functions are patched in
every ``repro`` module that bound them by name (``from ... import icp``
binds a second reference the wrapper must also replace).  On exit every
original is put back, so untraced runs execute unwrapped code.

:func:`layer_metrics` turns the recorded spans into the per-layer metrics,
each reported per op.  ``PER_LAYER`` lists them with their unit and the
direction that is better; ``BENCHMARK.json`` carries the same list.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from spans import OTHER, SpanRecorder


@dataclass(frozen=True)
class Hook:
    """One wrapped entry point: ``owner`` is ``module`` or ``module:Class``."""

    layer: str
    owner: str
    attr: str
    counts: Callable | None = None
    before: Callable | None = None


def _search_before(args, kwargs):
    stats = args[0].stats
    return stats.queries, stats.nodes_visited, stats.reused_queries


def _search_counts(args, kwargs, result, before):
    stats = args[0].stats
    queries, nodes, reused = before
    return {
        "queries": stats.queries - queries,
        "nodes": stats.nodes_visited - nodes,
        "reused": stats.reused_queries - reused,
    }


def _features_before(args, kwargs):
    state = args[1] if len(args) > 1 else kwargs["state"]
    return state.has_features


def _features_counts(args, kwargs, result, had_features):
    if had_features:
        return {}
    return {"extended": 1, "keypoints": len(result.keypoints)}


def _match_counts(args, kwargs, result, before):
    return {
        "feature_matches": result.n_feature_correspondences,
        "inliers": result.n_inlier_correspondences,
    }


def _icp_counts(args, kwargs, result, before):
    return {"iterations": result.iterations, "converged": int(result.converged)}


def _health_counts(args, kwargs, result, before):
    return {"unhealthy": int(not result.healthy)}


def _verify_counts(args, kwargs, result, before):
    return {"verifications": 1, "accepted": int(result is not None)}


def _optimize_counts(args, kwargs, result, before):
    return {
        "iterations": result.iterations,
        "active": result.n_active_nodes,
        "nodes": len(args[0].nodes),
    }


def _reanchor_counts(args, kwargs, result, before):
    return {"voxels": result}


def _workload_counts(args, kwargs, result, before):
    return {"queries": result.n_queries, "nodes": result.total_nodes_visited}


def _simulate_counts(args, kwargs, result, before):
    return {"cycles": result.cycles}


_SEARCHER = "repro.registration.search:NeighborSearcher"
_PIPELINE = "repro.registration.pipeline:Pipeline"
_CLOSER = "repro.mapping.loop_closure:LoopCloser"
_VOXELS = "repro.mapping.voxel_map:VoxelMap"

HOOKS = (
    *(
        Hook("search", _SEARCHER, name, _search_counts, _search_before)
        for name in ("nn_batch", "knn_batch", "radius_batch", "radius_batch_csr")
    ),
    Hook("index", "repro.registration.search", "build_index"),
    Hook("registration.preprocess", _PIPELINE, "preprocess",
         lambda a, k, r, b: {"points": len(r.cloud)}),
    Hook("registration.features", _PIPELINE, "ensure_features",
         _features_counts, _features_before),
    Hook("registration.match", _PIPELINE, "match", _match_counts),
    Hook("registration.icp", "repro.registration.icp", "icp", _icp_counts),
    Hook("registration.health", "repro.registration.health",
         "assess_registration", _health_counts),
    Hook("mapping.loop_closure", _CLOSER, "candidates"),
    Hook("mapping.loop_closure", _CLOSER, "verify", _verify_counts),
    Hook("mapping.pose_graph", "repro.mapping.pose_graph:PoseGraph",
         "optimize", _optimize_counts),
    Hook("mapping.voxel_map.insert", _VOXELS, "insert"),
    Hook("mapping.voxel_map.re_anchor", _VOXELS, "re_anchor", _reanchor_counts),
    Hook("accel.workload", "repro.accel.workload", "build_workload",
         _workload_counts),
    Hook("accel.simulator", "repro.accel.simulator:TigrisSimulator",
         "simulate", _simulate_counts),
)


def _holders(hook: Hook, original) -> list:
    """Every object whose ``hook.attr`` must be replaced."""
    module_name, _, class_name = hook.owner.partition(":")
    module = importlib.import_module(module_name)
    if class_name:
        return [getattr(module, class_name)]
    return [
        mod
        for name, mod in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro."))
        and getattr(mod, hook.attr, None) is original
    ]


def _original(hook: Hook):
    module_name, _, class_name = hook.owner.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        return getattr(owner, class_name).__dict__[hook.attr]
    return getattr(owner, hook.attr)


def _wrap(recorder: SpanRecorder, hook: Hook, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = hook.before(args, kwargs) if hook.before else None
        span = recorder.begin(hook.layer)
        try:
            result = fn(*args, **kwargs)
            if span is not None and hook.counts is not None:
                span.counts.update(hook.counts(args, kwargs, result, before))
            return result
        finally:
            recorder.end(span)

    wrapper.perfbench_layer = hook.layer
    return wrapper


@contextmanager
def instrumented(recorder: SpanRecorder):
    """Wrap every hooked entry point for the duration of the block."""
    patches = []
    try:
        for hook in HOOKS:
            original = _original(hook)
            wrapper = _wrap(recorder, hook, original)
            for holder in _holders(hook, original):
                setattr(holder, hook.attr, wrapper)
                patches.append((holder, hook.attr, original))
        yield
    finally:
        for holder, attr, original in reversed(patches):
            setattr(holder, attr, original)


def wrapped_entry_points() -> list[str]:
    """Hooked names that currently resolve to a wrapper, in any holder."""
    found = []
    for hook in HOOKS:
        module_name, _, class_name = hook.owner.partition(":")
        if class_name:
            cls = getattr(importlib.import_module(module_name), class_name)
            bound = [(hook.owner, cls.__dict__[hook.attr])]
        else:
            bound = [
                (name, getattr(mod, hook.attr))
                for name, mod in list(sys.modules.items())
                if (name == "repro" or name.startswith("repro."))
                and hasattr(mod, hook.attr)
            ]
        found += [
            f"{owner}.{hook.attr}" for owner, fn in bound if hasattr(fn, "perfbench_layer")
        ]
    return found


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("search.self_ms", "ms/op", "lower"),
    ("search.calls", "count/op", "lower"),
    ("search.queries", "count/op", "lower"),
    ("search.nodes_per_query", "count", "lower"),
    ("search.reused_ratio", "ratio", "higher"),
    ("index.build_ms", "ms/op", "lower"),
    ("index.builds", "count/op", "lower"),
    ("registration.preprocess.self_ms", "ms/op", "lower"),
    ("registration.preprocess.calls", "count/op", "lower"),
    ("registration.preprocess.points", "count", "lower"),
    ("registration.features.self_ms", "ms/op", "lower"),
    ("registration.features.keypoints", "count", "lower"),
    ("registration.match.self_ms", "ms/op", "lower"),
    ("registration.match.calls", "count/op", "lower"),
    ("registration.match.inlier_ratio", "ratio", "higher"),
    ("registration.icp.self_ms", "ms/op", "lower"),
    ("registration.icp.iterations", "count", "lower"),
    ("registration.icp.converged_ratio", "ratio", "higher"),
    ("registration.health.self_ms", "ms/op", "lower"),
    ("registration.health.unhealthy_ratio", "ratio", "lower"),
    ("registration.health.retries", "count/op", "lower"),
    ("registration.health.recovered_ratio", "ratio", "higher"),
    ("registration.health.bridged", "count/op", "lower"),
    ("mapping.loop_closure.total_ms", "ms/op", "lower"),
    ("mapping.loop_closure.self_ms", "ms/op", "lower"),
    ("mapping.loop_closure.verifications", "count/op", "lower"),
    ("mapping.loop_closure.accept_ratio", "ratio", "higher"),
    ("mapping.pose_graph.self_ms", "ms/op", "lower"),
    ("mapping.pose_graph.calls", "count/op", "lower"),
    ("mapping.pose_graph.gn_iterations", "count", "lower"),
    ("mapping.pose_graph.active_ratio", "ratio", "lower"),
    ("mapping.voxel_map.insert_ms", "ms/op", "lower"),
    ("mapping.voxel_map.reanchor_ms", "ms/op", "lower"),
    ("mapping.voxel_map.reanchored_voxels", "count/op", "lower"),
    ("accel.workload.self_ms", "ms/op", "lower"),
    ("accel.workload.queries", "count/op", "lower"),
    ("accel.workload.nodes_visited", "count/op", "lower"),
    ("accel.simulator.self_ms", "ms/op", "lower"),
    ("accel.simulator.cycles", "count/op", "lower"),
    ("other.self_ms", "ms/op", "lower"),
    ("trace.op_ms.p50", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.accounting_error", "ratio", "lower"),
    ("xcheck.search_share", "ratio", "lower"),
    ("xcheck.search_share_program", "ratio", "lower"),
    ("xcheck.loop_share", "ratio", "lower"),
    ("xcheck.loop_share_program", "ratio", "lower"),
)

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: SpanRecorder, ladder: dict, speed: float = 1.0) -> dict[str, float]:
    """Per-op layer metrics from the recorded spans.

    ``ladder`` carries the recovery-ladder totals read from the drivers'
    ``OdometryStats`` (pairs, unhealthy, retries, recovered, bridged).
    ``speed`` multiplies every time, to bring span times to the reference
    kernel's nominal speed.
    """
    n_ops = len(recorder.ops)
    totals = recorder.layer_totals()

    def get(layer):
        return totals.get(layer, {"self": 0.0, "total": 0.0, "spans": 0, "counts": {}})

    def per_op_ms(value):
        return 1e3 * speed * _ratio(value, n_ops)

    def count(layer, key):
        return get(layer)["counts"].get(key, 0)

    search, match, icp = get("search"), get("registration.match"), get("registration.icp")
    graph = get("mapping.pose_graph")
    features_extended = count("registration.features", "extended")
    verifications = count("mapping.loop_closure", "verifications")
    return {
        "search.self_ms": per_op_ms(search["self"]),
        "search.calls": _ratio(search["spans"], n_ops),
        "search.queries": _ratio(count("search", "queries"), n_ops),
        "search.nodes_per_query": _ratio(count("search", "nodes"), count("search", "queries")),
        "search.reused_ratio": _ratio(count("search", "reused"), count("search", "queries")),
        "index.build_ms": per_op_ms(get("index")["total"]),
        "index.builds": _ratio(get("index")["spans"], n_ops),
        "registration.preprocess.self_ms": per_op_ms(get("registration.preprocess")["self"]),
        "registration.preprocess.calls": _ratio(get("registration.preprocess")["spans"], n_ops),
        "registration.preprocess.points": _ratio(
            count("registration.preprocess", "points"), get("registration.preprocess")["spans"]
        ),
        "registration.features.self_ms": per_op_ms(get("registration.features")["self"]),
        "registration.features.keypoints": _ratio(
            count("registration.features", "keypoints"), features_extended
        ),
        "registration.match.self_ms": per_op_ms(match["self"]),
        "registration.match.calls": _ratio(match["spans"], n_ops),
        "registration.match.inlier_ratio": _ratio(
            count("registration.match", "inliers"),
            count("registration.match", "feature_matches"),
        ),
        "registration.icp.self_ms": per_op_ms(icp["self"]),
        "registration.icp.iterations": _ratio(count("registration.icp", "iterations"), icp["spans"]),
        "registration.icp.converged_ratio": _ratio(
            count("registration.icp", "converged"), icp["spans"]
        ),
        "registration.health.self_ms": per_op_ms(get("registration.health")["self"]),
        "registration.health.unhealthy_ratio": _ratio(ladder["unhealthy"], ladder["pairs"]),
        "registration.health.retries": _ratio(ladder["retries"], n_ops),
        "registration.health.recovered_ratio": _ratio(ladder["recovered"], ladder["unhealthy"]),
        "registration.health.bridged": _ratio(ladder["bridged"], n_ops),
        "mapping.loop_closure.total_ms": per_op_ms(get("mapping.loop_closure")["total"]),
        "mapping.loop_closure.self_ms": per_op_ms(get("mapping.loop_closure")["self"]),
        "mapping.loop_closure.verifications": _ratio(verifications, n_ops),
        "mapping.loop_closure.accept_ratio": _ratio(
            count("mapping.loop_closure", "accepted"), verifications
        ),
        "mapping.pose_graph.self_ms": per_op_ms(graph["self"]),
        "mapping.pose_graph.calls": _ratio(graph["spans"], n_ops),
        "mapping.pose_graph.gn_iterations": _ratio(
            count("mapping.pose_graph", "iterations"), graph["spans"]
        ),
        "mapping.pose_graph.active_ratio": _ratio(
            count("mapping.pose_graph", "active"), count("mapping.pose_graph", "nodes")
        ),
        "mapping.voxel_map.insert_ms": per_op_ms(get("mapping.voxel_map.insert")["self"]),
        "mapping.voxel_map.reanchor_ms": per_op_ms(get("mapping.voxel_map.re_anchor")["self"]),
        "mapping.voxel_map.reanchored_voxels": _ratio(
            count("mapping.voxel_map.re_anchor", "voxels"), n_ops
        ),
        "accel.workload.self_ms": per_op_ms(get("accel.workload")["self"]),
        "accel.workload.queries": _ratio(count("accel.workload", "queries"), n_ops),
        "accel.workload.nodes_visited": _ratio(count("accel.workload", "nodes"), n_ops),
        "accel.simulator.self_ms": per_op_ms(get("accel.simulator")["self"]),
        "accel.simulator.cycles": _ratio(count("accel.simulator", "cycles"), n_ops),
        "other.self_ms": per_op_ms(get(OTHER)["self"]),
    }


def layer_shares(recorder: SpanRecorder) -> dict[str, float]:
    """Each layer's self time as a share of total op time."""
    totals = recorder.layer_totals()
    op_time = sum(root.duration for root in recorder.ops)
    return {layer: _ratio(entry["self"], op_time) for layer, entry in totals.items()}
