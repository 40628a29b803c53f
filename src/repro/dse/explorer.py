"""Design-space exploration driver (paper Sec. 3.2).

Evaluates pipeline configurations over synthetic scenes, measuring
registration accuracy (KITTI-style errors against ground truth) and
execution time, and produces the raw material for Fig. 3 (the
accuracy/performance scatter + Pareto frontier) and Fig. 4 (the
per-stage and KD-tree time distributions of the frontier points).

Shared-artifact evaluation
--------------------------
A grid point's *pairwise* knobs (KPCE, rejection, ICP) do not affect
per-frame preprocessing, so grid points sharing a front-end fingerprint
(:meth:`~repro.registration.pipeline.PipelineConfig.frontend_fingerprint`)
share bit-identical :class:`~repro.registration.pipeline.FrameState`
artifacts.  :func:`explore` exploits this: it groups configurations by
fingerprint (:func:`repro.dse.grid.fingerprint_groups`), preprocesses
each ``(fingerprint, scene, frame)`` exactly once into a keyed
:class:`FrameStateCache`, and evaluates every configuration's pair
chain through the streaming ``Pipeline.match`` path — so a grid of N
configs costs ~(unique front-ends x frames) preprocesses instead of
(N x pairs x 2).  Every configuration reports what a chain of
``Pipeline.register`` calls over its pairs reports: errors, transforms,
and search/stage stats are bit-identical, only wall-clock differs
(``tests/dse/test_parity.py`` checks it against such a chain).
To evaluate one configuration alone, pass ``{name: config}``.

``workers > 1`` shards ``(scene, fingerprint-group)`` tasks across a
``ProcessPoolExecutor`` — preprocess sharing stays within each group's
process, and results are deterministic regardless of worker count.
``workers=1`` (the default) runs in-process for debuggability.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.dse.grid import fingerprint_groups
from repro.dse.pareto import (
    DesignPointResult,
    aggregate_across_scenes,
    pareto_frontier,
)
from repro.geometry import metrics
from repro.io.dataset import SceneSuite, SyntheticSequence
from repro.profiling.timer import StageProfiler
from repro.registration.pipeline import (
    _FEATURE_STAGES,
    _FRAME_STAGES,
    Pipeline,
    PipelineConfig,
)
from repro.telemetry import NULL_TRACER, Tracer

__all__ = [
    "explore",
    "ExplorationReport",
    "FrameStateCache",
]


class FrameStateCache:
    """Keyed cache of preprocessed frames + their preprocess profilers.

    Keys are ``(fingerprint, scene, frame_index)``; values pair the
    immutable :class:`~repro.registration.pipeline.FrameState` with the
    :class:`~repro.profiling.StageProfiler` that timed its single real
    preprocess, so every consumer attributes the same measured cost.
    ``hits``/``misses`` make reuse observable to tests and benches.
    """

    def __init__(self):
        self._entries: dict[tuple, tuple] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple, build):
        """The cached ``(state, profiler)`` for ``key``, building on miss."""
        if key in self._entries:
            self.hits += 1
        else:
            self.misses += 1
            self._entries[key] = build()
        return self._entries[key]


@dataclass
class ExplorationReport:
    """All evaluated points plus both Pareto frontiers (Fig. 3a/3b).

    Single-scene explorations fill ``results`` with the per-scene
    points directly.  Multi-scene explorations put per-scene points in
    ``scene_results`` and cross-scene mean aggregates in ``results``;
    per-scene frontiers live in ``scene_frontiers`` (keyed by scene,
    then ``"translational"``/``"rotational"``).  Frontier membership is
    always by object identity — ``detail`` carries profilers and
    ndarrays, so dataclass equality is not meaningful.
    """

    results: list[DesignPointResult]
    translational_frontier: list[DesignPointResult] = field(default_factory=list)
    rotational_frontier: list[DesignPointResult] = field(default_factory=list)
    scene_results: dict[str, list[DesignPointResult]] = field(default_factory=dict)
    scene_frontiers: dict[str, dict[str, list[DesignPointResult]]] = field(
        default_factory=dict
    )

    def __post_init__(self):
        if not self.translational_frontier:
            self.translational_frontier = pareto_frontier(
                self.results, "translational_error"
            )
        if not self.rotational_frontier:
            self.rotational_frontier = pareto_frontier(
                self.results, "rotational_error"
            )
        if not self.scene_frontiers:
            self.scene_frontiers = {
                scene: {
                    "translational": pareto_frontier(
                        results, "translational_error"
                    ),
                    "rotational": pareto_frontier(results, "rotational_error"),
                }
                for scene, results in self.scene_results.items()
            }

    @property
    def scenes(self) -> tuple[str, ...]:
        return tuple(self.scene_results)

    def _tags(self, result: DesignPointResult) -> str:
        tag = ""
        if any(r is result for r in self.translational_frontier):
            tag += " T"
        if any(r is result for r in self.rotational_frontier):
            tag += " R"
        return tag

    def summary(self) -> str:
        lines = [
            f"{'name':<16}{'time(s)':>9}{'trans err (%)':>15}{'rot err (deg/m)':>17}"
        ]
        for r in sorted(self.results, key=lambda r: r.time):
            lines.append(
                f"{r.name:<16}{r.time:>9.3f}{100 * r.translational_error:>15.3f}"
                f"{r.rotational_error:>17.4f}{self._tags(r)}"
            )
        return "\n".join(lines)

    def scene_summary(self) -> str:
        """Cross-scene table: per-scene time/error cells plus the mean.

        Each cell reads ``time s / trans err %`` with ``T``/``R``
        marking membership of that scene's translational/rotational
        Pareto frontier; the aggregate column is tagged against the
        cross-scene frontiers.
        """
        if not self.scene_results:
            return self.summary()
        scenes = list(self.scene_results)
        width = max(20, *(len(s) + 2 for s in scenes))
        lines = [
            f"{'name':<16}"
            + "".join(f"{scene:>{width}}" for scene in scenes)
            + f"{'aggregate':>{width}}"
        ]
        per_scene_by_name = {
            scene: {r.name: r for r in results}
            for scene, results in self.scene_results.items()
        }
        for aggregate in sorted(self.results, key=lambda r: r.time):
            row = f"{aggregate.name:<16}"
            for scene in scenes:
                r = per_scene_by_name[scene][aggregate.name]
                tag = ""
                if any(
                    f is r for f in self.scene_frontiers[scene]["translational"]
                ):
                    tag += "T"
                if any(
                    f is r for f in self.scene_frontiers[scene]["rotational"]
                ):
                    tag += "R"
                cell = f"{r.time:.2f}s/{100 * r.translational_error:.1f}%{tag:<2}"
                row += f"{cell:>{width}}"
            agg_cell = (
                f"{aggregate.time:.2f}s/"
                f"{100 * aggregate.translational_error:.1f}%"
                f"{self._tags(aggregate).replace(' ', ''):<2}"
            )
            row += f"{agg_cell:>{width}}"
            lines.append(row)
        return "\n".join(lines)


def _select_pairs(sequence: SyntheticSequence, max_pairs: int | None) -> list:
    pairs = list(sequence.pairs())
    if max_pairs is not None:
        pairs = pairs[:max_pairs]
    if not pairs:
        raise ValueError("sequence has fewer than two frames")
    return pairs


def _design_point(
    name: str,
    sequence: SyntheticSequence,
    n_pairs: int,
    times: list[float],
    relatives: list[np.ndarray],
    profiler: StageProfiler,
    pair_stats: list[dict],
    icp_iterations: list[int],
    scene: str | None,
) -> DesignPointResult:
    """Score a chained pair run and package it for the Pareto analysis.

    Time is the mean per-pair time; errors are the KITTI sequence
    errors of the chained estimated trajectory against ground truth.
    ``detail`` carries the merged stage profile for the Fig. 4
    analyses, alongside the per-pair transforms, search stats and ICP
    iteration counts the parity suite pins.
    """
    estimated = metrics.trajectory_from_relative(relatives)
    ground_truth = sequence.poses[: n_pairs + 1]
    errors = metrics.kitti_sequence_errors(estimated, ground_truth)
    return DesignPointResult(
        name=name,
        time=float(np.mean(times)),
        translational_error=errors.translational,
        rotational_error=errors.rotational,
        detail={
            "profiler": profiler,
            "stage_fractions": profiler.stage_fractions(),
            "kdtree_fractions": profiler.kdtree_fractions(),
            "errors": errors,
            "relatives": relatives,
            "pair_stats": pair_stats,
            "icp_iterations": icp_iterations,
        },
        scene=scene,
    )


def _evaluate_group(
    named_configs: dict[str, PipelineConfig],
    sequence: SyntheticSequence,
    scene: str | None,
    max_pairs: int | None,
    cache: FrameStateCache,
    tracer=None,
) -> list[DesignPointResult]:
    """Evaluate one fingerprint group with shared per-frame artifacts.

    Preprocessing reads only front-end knobs, identical across the
    group by construction, so any member configuration can build the
    shared states.  The fingerprint also fixes whether the members run
    initial estimation (its planned reuse radius is ``None`` exactly
    under ``skip_initial_estimation``), so the representative decides
    whether features are built and which preprocess stages every pair
    consumes, keeping every result bit-identical to a
    ``Pipeline.register`` chain over its pairs.

    A :class:`~repro.telemetry.Tracer` (optional) records the shared
    preprocesses and, per configuration, a ``config`` span wrapping its
    pair chain — with every pipeline stage span nested inside.
    """
    trace = NULL_TRACER if tracer is None else tracer
    first = next(iter(named_configs.values()))
    representative = Pipeline(first)
    fingerprint = first.frontend_fingerprint()
    with_features = representative.runs_initial()
    consumed = _FRAME_STAGES + (_FEATURE_STAGES if with_features else ())
    pairs = _select_pairs(sequence, max_pairs)
    n_frames = len(pairs) + 1

    def preprocess(index: int):
        def build():
            profiler = StageProfiler(tracer=tracer)
            state = representative.preprocess(
                sequence.frames[index],
                profiler=profiler,
                with_features=with_features,
            )
            return state, profiler

        return cache.get((fingerprint, scene, index), build)

    frames = [preprocess(index) for index in range(n_frames)]

    results = []
    for name, config in named_configs.items():
        pipeline = Pipeline(config)
        merged_profiler = StageProfiler()
        relatives: list[np.ndarray] = []
        times: list[float] = []
        pair_stats: list[dict] = []
        icp_iterations: list[int] = []

        with trace.span("config", config=name, n_pairs=len(pairs)):
            for index in range(len(pairs)):
                source_state, source_profiler = frames[index + 1]
                target_state, target_profiler = frames[index]
                pair_profiler = StageProfiler(tracer=tracer)
                with trace.span("pair", index=index):
                    result = pipeline.match(
                        source_state, target_state, profiler=pair_profiler
                    )
                # Attribute the (shared, once-measured) preprocess cost
                # of the stages this config consumed to this pair,
                # mirroring what a standalone ``register`` would have
                # spent.  A config that skips initial estimation never
                # consumed the feature stages, so they stay out of its
                # profile and time.
                pair_profiler.merge(source_profiler, stages=consumed)
                pair_profiler.merge(target_profiler, stages=consumed)
                times.append(pair_profiler.total)
                merged_profiler.merge(pair_profiler)
                relatives.append(result.transformation)
                pair_stats.append(result.stage_stats)
                icp_iterations.append(result.icp.iterations)

        results.append(
            _design_point(
                name,
                sequence,
                len(pairs),
                times,
                relatives,
                merged_profiler,
                pair_stats,
                icp_iterations,
                scene,
            )
        )
    return results


def _scene_group_task(
    scene: str | None,
    named_configs: dict[str, PipelineConfig],
    sequence: SyntheticSequence,
    max_pairs: int | None,
    with_trace: bool = False,
) -> tuple[list[DesignPointResult], dict | None]:
    """One shard of work: a fingerprint group evaluated over one scene.

    Module-level so a ``ProcessPoolExecutor`` can pickle it; also the
    unit of in-process execution, so both paths run the same code.

    With ``with_trace`` a local :class:`~repro.telemetry.Tracer`
    records the shard's span tree (one ``group`` root) and the frozen
    payload rides back with the results — across the process boundary
    when sharded — for :func:`explore` to adopt into the parent trace.
    """
    tracer = Tracer() if with_trace else None
    trace = NULL_TRACER if tracer is None else tracer
    with trace.span("group", scene=scene, configs=list(named_configs)):
        results = _evaluate_group(
            named_configs,
            sequence,
            scene,
            max_pairs,
            FrameStateCache(),
            tracer=tracer,
        )
    payload = tracer.freeze() if tracer is not None else None
    return results, payload


def _normalize_scenes(
    scenes: SyntheticSequence | SceneSuite | dict[str, SyntheticSequence],
) -> dict[str, SyntheticSequence]:
    if isinstance(scenes, SyntheticSequence):
        return {"scene": scenes}
    if isinstance(scenes, SceneSuite):
        return dict(scenes.items())
    if not scenes:
        raise ValueError("need at least one scene to explore")
    return dict(scenes)


def explore(
    configs: dict[str, PipelineConfig],
    scenes: SyntheticSequence | SceneSuite | dict[str, SyntheticSequence],
    max_pairs: int | None = None,
    workers: int = 1,
    tracer=None,
) -> ExplorationReport:
    """Evaluate every configuration over every scene, extract frontiers.

    ``scenes`` may be a single :class:`SyntheticSequence` (classic
    single-scene exploration — ``report.results`` are its points
    directly), a :class:`~repro.io.dataset.SceneSuite`, or a mapping of
    scene name to sequence.  With several scenes, ``report.results``
    holds cross-scene mean aggregates and per-scene points land in
    ``report.scene_results``.

    Front-end preprocessing is shared within fingerprint groups.
    ``workers > 1`` distributes ``(scene, fingerprint group)`` shards
    over a process pool; results are identical for any worker count.

    A :class:`~repro.telemetry.Tracer` (optional) records one
    ``explore`` span with every shard's ``group`` subtree underneath.
    Shards evaluated in worker processes build a local tracer, freeze
    it, and ship the payload back with their results; :func:`explore`
    adopts each payload into the parent tracer (worker subtrees land on
    their own per-pid tracks), so a sharded exploration still exports
    as one merged trace.
    """
    trace = NULL_TRACER if tracer is None else tracer
    scene_map = _normalize_scenes(scenes)
    groups = fingerprint_groups(configs)
    single = len(scene_map) == 1

    tasks = [
        (scene, named, sequence, max_pairs, tracer is not None)
        for scene, sequence in scene_map.items()
        for named in groups.values()
    ]

    with trace.span(
        "explore",
        n_configs=len(configs),
        n_groups=len(groups),
        n_scenes=len(scene_map),
        workers=workers,
    ):
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_scene_group_task, *task) for task in tasks
                ]
                outcomes = [future.result() for future in futures]
        else:
            outcomes = [_scene_group_task(*task) for task in tasks]
        shards = []
        for results, payload in outcomes:
            if payload is not None:
                trace.adopt(payload)
            shards.append(results)

    # Reassemble per scene in the caller's configuration order.
    scene_results: dict[str, list[DesignPointResult]] = {}
    for (scene, *_), shard in zip(tasks, shards):
        scene_results.setdefault(scene, []).extend(shard)
    order = {name: index for index, name in enumerate(configs)}
    for scene in scene_results:
        scene_results[scene].sort(key=lambda r: order[r.name])

    if single:
        results = next(iter(scene_results.values()))
    else:
        results = aggregate_across_scenes(scene_results)
    return ExplorationReport(results=results, scene_results=scene_results)
