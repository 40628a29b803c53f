"""The configurable point cloud registration pipeline (paper Fig. 2).

Two phases: **initial estimation** (normal estimation -> key-point
detection -> descriptor calculation -> KPCE -> correspondence rejection)
produces a coarse transform from sparse salient points; **fine-tuning**
(ICP: RPCE <-> transformation estimation) iterates on all raw points
until convergence.  Every algorithmic and parametric knob of the paper's
Table 1 is a field of :class:`PipelineConfig`, which is what makes the
design-space exploration of Sec. 3.2 possible.

The pipeline is also the instrumentation harness: per-stage wall time
(Fig. 4a), KD-tree search/construction time (Fig. 4b), per-stage search
work counters (the accelerator workload), and per-stage error injectors
(Fig. 7) all hang off the same ``register`` call.

Per-frame / pairwise split
--------------------------
``register`` is a composition of two public phases.  ``preprocess``
performs every computation that depends on a *single* frame — search
structure construction, normal estimation, key-point detection,
descriptor calculation — and returns the artifacts as an immutable
:class:`FrameState`.
``match`` consumes two ``FrameState`` objects and runs the *pairwise*
stages: KPCE, correspondence rejection, and ICP fine-tuning.  Every
sequence runs on the split: pair ``k``'s source frame is exactly pair
``k + 1``'s target frame, so streaming odometry
(:class:`~repro.registration.odometry.StreamingOdometry`) and the
design-space explorer preprocess each frame once and call ``match``
once per pair.  ``register`` stays the one pairwise composition; the
parity tests chain it pair by pair as the oracle both must equal bit
for bit.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from repro.core.approx import ApproximateSearch
from repro.io.pointcloud import PointCloud
from repro.kdtree.stats import SearchStats
from repro.profiling.timer import StageProfiler
from repro.registration.correspondence import (
    KPCEConfig,
    estimate_feature_correspondences,
)
from repro.registration.descriptors import DescriptorConfig, compute_descriptors
from repro.registration.icp import ICPConfig, ICPResult, icp
from repro.registration.keypoints import KeypointConfig, detect_keypoints
from repro.registration.keypoints.narf import RangeImage
from repro.registration.normals import NormalEstimationConfig, estimate_normals
from repro.registration.rejection import RejectionConfig, reject_correspondences
from repro.registration.search import (
    NeighborSearcher,
    RadiusReuseCache,
    SearchConfig,
    build_index,
    exact_index,
)
from repro.telemetry import tracer_of

__all__ = [
    "PipelineConfig",
    "RegistrationResult",
    "FrameState",
    "Pipeline",
    "STAGE_NAMES",
]

# The seven key stages of Fig. 4a, in pipeline order.
STAGE_NAMES = (
    "Normal Estimation",
    "Key-point Detection",
    "Descriptor Calculation",
    "KPCE",
    "Correspondence Rejection",
    "RPCE",
    "Error Minimization",
)


def _canonical(value):
    """Flatten a config value into a hashable, order-stable tuple.

    Dataclass configs become ``(ClassName, (field, value), ...)`` with
    nested dataclasses and dicts (e.g. ``KeypointConfig.params``)
    recursively flattened; dict items are sorted by key so insertion
    order never splits a fingerprint.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            (f.name, _canonical(getattr(value, f.name)))
            for f in fields(value)
        )
    if isinstance(value, dict):
        return tuple((k, _canonical(value[k])) for k in sorted(value))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    return value


@dataclass
class PipelineConfig:
    """Every design knob of Table 1, plus engineering controls.

    ``search`` selects the neighbor-search backend for the 3D stages
    (NE, keypoints, descriptors, RPCE).  With ``backend="approximate"``
    the approximation applies only to the dense stages — NE and RPCE —
    as the paper prescribes (Sec. 4.2: sparse KPCE is error-sensitive);
    keypoint detection and descriptors fall back to exact search on the
    same two-stage tree.

    ``injectors`` maps stage names (``"Normal Estimation"``, ``"RPCE"``,
    ``"KPCE"``) to error injectors for the Fig. 7 study.

    ``voxel_downsample`` optionally reduces both clouds before any
    processing — an engineering control for test runtimes, not a paper
    knob.
    """

    normals: NormalEstimationConfig = field(default_factory=NormalEstimationConfig)
    keypoints: KeypointConfig = field(default_factory=KeypointConfig)
    descriptor: DescriptorConfig = field(default_factory=DescriptorConfig)
    kpce: KPCEConfig = field(default_factory=KPCEConfig)
    rejection: RejectionConfig = field(default_factory=RejectionConfig)
    icp: ICPConfig = field(default_factory=ICPConfig)
    search: SearchConfig = field(default_factory=SearchConfig)
    injectors: dict = field(default_factory=dict)
    voxel_downsample: float | None = None
    skip_initial_estimation: bool = False

    def frontend_fingerprint(self) -> tuple:
        """Canonical key over every knob that shapes :meth:`Pipeline.preprocess`.

        Two configs with equal fingerprints produce bit-identical
        :class:`FrameState` artifacts for the same input frame — the
        tree build, normal estimation, key-point detection, and
        descriptor calculation read nothing else of the config.  The
        design-space explorer keys its shared preprocess cache on this,
        so grid points that differ only in pairwise knobs (KPCE,
        rejection, ICP) reuse one front-end pass.

        Error injectors targeting front-end stages make preprocessing
        config-specific in ways this module cannot canonicalize, so any
        such injector is fingerprinted by object identity: sharing then
        happens only between configs holding the *same* injector object.
        """
        frontend_injectors = tuple(
            (stage, id(self.injectors[stage]))
            for stage in _FRAME_STAGES + _FEATURE_STAGES
            if self.injectors.get(stage) is not None
        )
        return (
            self.voxel_downsample,
            _canonical(self.normals),
            _canonical(self.keypoints),
            _canonical(self.descriptor),
            _canonical(self.search),
            frontend_injectors,
            # The nested-radius reuse plan shapes which searches
            # preprocess actually executes (and therefore its stats):
            # configs that differ only in e.g. skip_initial_estimation
            # plan differently and must not share front-end artifacts.
            _planned_reuse_radius(self),
        )


@dataclass
class RegistrationResult:
    """Everything a ``register`` call produced.

    ``transformation`` maps source-frame coordinates into the target
    frame (the matrix M of paper Eq. 1).
    """

    transformation: np.ndarray
    initial_transformation: np.ndarray
    icp: ICPResult
    profiler: StageProfiler
    stage_stats: dict[str, SearchStats]
    n_source_keypoints: int = 0
    n_target_keypoints: int = 0
    n_feature_correspondences: int = 0
    n_inlier_correspondences: int = 0
    success: bool = True

    @property
    def total_search_stats(self) -> SearchStats:
        """All search work across stages, merged."""
        total = SearchStats()
        for stats in self.stage_stats.values():
            total.merge(stats)
        return total

    def summary(self) -> str:
        """Human-readable account of the registration run."""
        work = self.total_search_stats
        fractions = self.profiler.kdtree_fractions()
        lines = [
            f"registration {'succeeded' if self.success else 'FAILED'} "
            f"in {self.profiler.total:.2f} s",
            f"  initial estimation: {self.n_source_keypoints}/"
            f"{self.n_target_keypoints} keypoints, "
            f"{self.n_feature_correspondences} matches, "
            f"{self.n_inlier_correspondences} inliers",
            f"  fine-tuning: {self.icp!r}",
            f"  search work: {work.nodes_visited:,} node visits over "
            f"{work.queries:,} queries "
            f"({100 * fractions['search']:.0f} % of runtime)",
        ]
        return "\n".join(lines)


# Stages whose work depends on one frame only — the ``preprocess`` half
# of the split.  The first is always run; the latter two only when the
# initial-estimation phase will need features.
_FRAME_STAGES = ("Normal Estimation",)
_FEATURE_STAGES = ("Key-point Detection", "Descriptor Calculation")


def _planned_reuse_radius(config: PipelineConfig) -> float | None:
    """The largest radius any preprocess stage will self-query, or None.

    Drives the nested-radius reuse cache: the first full-cloud radius
    search is inflated to this radius and every nested stage request is
    derived from it.  Computed from the *config* alone — never from
    ``with_features`` — so an eager preprocess and a lazy
    ``preprocess(with_features=False)`` + ``ensure_features`` charge
    identical stats (the two paths run identical searches).  Returns
    ``None`` when only one radius is ever planned
    (``skip_initial_estimation``), where caching could never pay.

    Each branch mirrors its stage's radius arithmetic expression for
    expression (e.g. SIFT's scale-ladder maximum), so the plan is never
    smaller than what the stage actually asks for; a stage asking for
    more than the plan simply falls back to a fresh search.
    """
    if config.skip_initial_estimation:
        return None
    radii = [config.normals.radius]
    params = config.keypoints.params
    if config.keypoints.method == "harris":
        radii.append(params.get("radius", 1.0))
    elif config.keypoints.method == "sift":
        min_scale = params.get("min_scale", 0.5)
        n_octaves = params.get("n_octaves", 3)
        per_octave = params.get("scales_per_octave", 2)
        max_scale = (
            min_scale
            * (2.0 ** (n_octaves - 1))
            * (2.0 ** (per_octave / per_octave))
        )
        radii.append(2.0 * max_scale)
    radii.append(config.descriptor.radius)
    return max(radii)


@dataclass(frozen=True)
class FrameState:
    """Immutable per-frame artifacts produced by :meth:`Pipeline.preprocess`.

    Everything here is a pure function of ``(frame, config)``: the
    (possibly downsampled) cloud with normals attached, the neighbor
    search structure over its points, and optionally the keypoints and
    descriptors for the initial-estimation phase.  ``range_image`` may
    be attached (via ``dataclasses.replace``) by callers that register
    many sources against one fixed target with projection RPCE;
    ``match`` builds it per call otherwise.  ``stats`` records the
    search work the preprocessing performed, keyed by stage name, so a
    pairwise ``match`` can account it to each pair that consumes the
    frame exactly as the monolithic ``register`` did.

    A ``FrameState`` is reusable across registrations — the whole point
    of the split — and must therefore never be mutated;
    :meth:`Pipeline.ensure_features` returns a *new* state when it has
    to extend one.
    """

    cloud: PointCloud
    index: object
    search_config: SearchConfig
    stats: dict[str, SearchStats]
    keypoints: np.ndarray | None = None
    descriptors: np.ndarray | None = None
    range_image: RangeImage | None = None
    # Nested-radius reuse cache over the exact index; immutable once
    # filled (so repeated preprocessing charges identical stats) and
    # dropped from the state ``ensure_features`` returns — the feature
    # stages are its last consumers, and featured states are what
    # streaming drivers retain.
    reuse: RadiusReuseCache | None = None

    def __len__(self) -> int:
        return len(self.cloud)

    @property
    def has_features(self) -> bool:
        """Whether keypoints and descriptors were computed."""
        return self.keypoints is not None and self.descriptors is not None

    def searcher(
        self,
        stats: SearchStats,
        exact: bool = False,
        fresh_approx: bool = False,
        profiler: StageProfiler | None = None,
        injector=None,
    ) -> NeighborSearcher:
        """A per-stage query view over this frame's search structure.

        ``exact`` strips the approximation layer (sparse stages);
        ``fresh_approx`` re-wraps the exact tree in a fresh
        :class:`~repro.core.approx.ApproximateSearch` so each dense
        stage starts with clean leader state, as in the hardware's
        per-pass leader buffers.
        """
        index = self.index
        if exact:
            index = exact_index(index)
        elif fresh_approx and isinstance(index, ApproximateSearch):
            index = ApproximateSearch(index.tree, self.search_config.approx)
        # The reuse cache only ever serves its own (exact) index with no
        # injector in the way; NeighborSearcher re-checks the identity.
        reuse = None if injector is not None else self.reuse
        return NeighborSearcher(
            index, stats, 0.0, profiler=profiler, injector=injector, reuse=reuse
        )


class Pipeline:
    """A configured registration pipeline; reusable across frame pairs."""

    def __init__(self, config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()

    # ------------------------------------------------------------------
    # Phase A: per-frame preprocessing -> FrameState.
    # ------------------------------------------------------------------

    def runs_initial(self, initial: np.ndarray | None = None) -> bool:
        """Whether a pair seeded with ``initial`` runs initial estimation.

        The single source of truth for :meth:`register`, :meth:`match`,
        and streaming drivers predicting which frames need features.
        """
        return initial is None and not self.config.skip_initial_estimation

    def preprocess(
        self,
        cloud: PointCloud,
        profiler: StageProfiler | None = None,
        with_features: bool | None = None,
    ) -> FrameState:
        """Run every single-frame stage over ``cloud``.

        ``with_features`` controls whether the initial-estimation
        artifacts (keypoints, descriptors) are computed; it defaults to
        ``not config.skip_initial_estimation``.  A state built without
        features can be extended later via :meth:`ensure_features`.
        """
        config = self.config
        profiler = profiler or StageProfiler()
        tracer = tracer_of(profiler)
        if with_features is None:
            with_features = self.runs_initial()
        stats = {name: SearchStats() for name in _FRAME_STAGES + _FEATURE_STAGES}

        with tracer.span("preprocess", n_raw_points=len(cloud)):
            if config.voxel_downsample is not None:
                cloud = cloud.voxel_downsample(config.voxel_downsample)
            if len(cloud) == 0:
                raise ValueError("cannot register empty point clouds")
            tracer.annotate(n_points=len(cloud))

            # Stage 1: search structure + Normal Estimation (dense;
            # approximate-eligible).  One tree per frame, shared by every
            # stage view derived from this state.
            with profiler.stage("Normal Estimation"):
                index, _ = build_index(cloud.points, config.search, profiler)
                planned = _planned_reuse_radius(config)
                reuse = (
                    RadiusReuseCache(exact_index(index), planned)
                    if planned is not None
                    else None
                )
                state = FrameState(
                    cloud=cloud,
                    index=index,
                    search_config=config.search,
                    stats=stats,
                    reuse=reuse,
                )
                cloud = estimate_normals(
                    cloud,
                    state.searcher(
                        stats["Normal Estimation"],
                        fresh_approx=True,
                        profiler=profiler,
                        injector=config.injectors.get("Normal Estimation"),
                    ),
                    config.normals,
                )
                state = replace(state, cloud=cloud)
                tracer.count_stats(stats["Normal Estimation"])

            if with_features:
                state = self.ensure_features(state, profiler=profiler)
        return state

    def ensure_features(
        self,
        state: FrameState,
        profiler: StageProfiler | None = None,
    ) -> FrameState:
        """Return a state that has keypoints and descriptors.

        ``state`` itself is returned when it already carries features;
        otherwise a new ``FrameState`` is built (the input is never
        mutated — callers caching states across pairs keep whichever
        version they hold).
        """
        if state.has_features:
            return state
        config = self.config
        profiler = profiler or StageProfiler()
        tracer = tracer_of(profiler)
        stats = {name: copy.copy(s) for name, s in state.stats.items()}
        working = replace(state, stats=stats)

        # Stage 2: Key-point Detection (exact search).
        with profiler.stage("Key-point Detection"):
            keypoints = detect_keypoints(
                working.cloud,
                working.searcher(
                    stats["Key-point Detection"],
                    exact=True,
                    profiler=profiler,
                    injector=config.injectors.get("Key-point Detection"),
                ),
                config.keypoints,
            )
            tracer.count_stats(stats["Key-point Detection"])
            tracer.annotate(n_keypoints=len(keypoints))

        # Stage 3: Descriptor Calculation (exact search).
        with profiler.stage("Descriptor Calculation"):
            descriptors = compute_descriptors(
                working.cloud,
                working.searcher(
                    stats["Descriptor Calculation"],
                    exact=True,
                    profiler=profiler,
                    injector=config.injectors.get("Descriptor Calculation"),
                ),
                keypoints,
                config.descriptor,
            )
            tracer.count_stats(stats["Descriptor Calculation"])
        # The descriptor stage was the reuse cache's last consumer; the
        # featured state (what streaming drivers keep) drops it so the
        # cached CSR doesn't outlive its usefulness.  The bare input
        # state keeps its reference — a second ensure_features on it
        # reuses identically and charges identical stats.
        return replace(
            working, keypoints=keypoints, descriptors=descriptors, reuse=None
        )

    # ------------------------------------------------------------------
    # Phase B: pairwise matching over two FrameStates.
    # ------------------------------------------------------------------

    def match(
        self,
        source_state: FrameState,
        target_state: FrameState,
        initial: np.ndarray | None = None,
        profiler: StageProfiler | None = None,
    ) -> RegistrationResult:
        """Run the pairwise stages over two preprocessed frames.

        The result's ``stage_stats`` fold in both frames' preprocessing
        work (for the stages this pair actually consumed), so counters
        are identical to a monolithic ``register`` call on the raw
        frames — streaming reuse changes *when* work happens, never what
        a pair reports.
        """
        profiler = profiler or StageProfiler()
        tracer = tracer_of(profiler)
        with tracer.span("match"):
            return self._match(source_state, target_state, initial, profiler, tracer)

    def _match(
        self,
        source_state: FrameState,
        target_state: FrameState,
        initial: np.ndarray | None,
        profiler: StageProfiler,
        tracer,
    ) -> RegistrationResult:
        config = self.config

        initial_transform = np.eye(4)
        run_initial = self.runs_initial(initial)
        if initial is not None:
            initial_transform = np.array(initial, dtype=np.float64)

        if run_initial:
            source_state = self.ensure_features(source_state, profiler=profiler)
            target_state = self.ensure_features(target_state, profiler=profiler)

        stage_stats = {name: SearchStats() for name in STAGE_NAMES}
        consumed = _FRAME_STAGES + (_FEATURE_STAGES if run_initial else ())
        for stage in consumed:
            stage_stats[stage].merge(source_state.stats[stage])
            stage_stats[stage].merge(target_state.stats[stage])

        source = source_state.cloud
        target = target_state.cloud
        n_source_kp = n_target_kp = 0
        n_feature_corr = n_inliers = 0

        if run_initial:
            source_kp = source_state.keypoints
            target_kp = target_state.keypoints
            n_source_kp, n_target_kp = len(source_kp), len(target_kp)

            # --------------------------------------------------------------
            # Stage 4: KPCE — feature-space matching (sparse, exact).
            # --------------------------------------------------------------
            with profiler.stage("KPCE"):
                kpce_config = config.kpce
                if (
                    config.rejection.ratio_threshold is not None
                    and not kpce_config.with_second
                ):
                    kpce_config = KPCEConfig(
                        reciprocal=kpce_config.reciprocal,
                        backend=kpce_config.backend,
                        with_second=True,
                    )
                feature_corr = estimate_feature_correspondences(
                    source_state.descriptors,
                    target_state.descriptors,
                    kpce_config,
                    profiler=profiler,
                    stats=stage_stats["KPCE"],
                    injector=config.injectors.get("KPCE"),
                )
                tracer.count_stats(stage_stats["KPCE"])
            n_feature_corr = len(feature_corr)
            tracer.annotate(n_feature_correspondences=n_feature_corr)

            # --------------------------------------------------------------
            # Stage 5: Correspondence Rejection -> initial transform.
            # --------------------------------------------------------------
            with profiler.stage("Correspondence Rejection"):
                # Feature rows -> 3D keypoint positions.
                mapped = feature_corr.select(np.arange(len(feature_corr)))
                mapped.source_indices = source_kp[feature_corr.source_indices]
                mapped.target_indices = target_kp[feature_corr.target_indices]
                rejection = reject_correspondences(
                    mapped, source.points, target.points, config.rejection
                )
            n_inliers = len(rejection.correspondences)
            if n_inliers >= 3:
                initial_transform = rejection.transformation

        # ------------------------------------------------------------------
        # Fine-tuning: ICP (RPCE dense; approximate-eligible).  The
        # target range image (projection RPCE only) passes through from
        # the state — worthwhile to prebuild when one target serves many
        # sources (e.g. localization against a map); icp() builds its
        # own otherwise, and in sequence odometry each frame is a
        # target exactly once anyway.
        # ------------------------------------------------------------------
        # Derived from the state's actual index, not the (mutable)
        # config: a state preprocessed by an approximate pipeline keeps
        # its per-pass leader resets even if the config drifted since.
        approximate = isinstance(target_state.index, ApproximateSearch)

        def rpce_searcher_factory():
            return target_state.searcher(
                stage_stats["RPCE"],
                fresh_approx=True,
                profiler=profiler,
                injector=config.injectors.get("RPCE"),
            )

        with tracer.span("icp", approximate=approximate):
            icp_result = icp(
                source,
                target,
                rpce_searcher_factory(),
                config.icp,
                initial=initial_transform,
                profiler=profiler,
                searcher_factory=rpce_searcher_factory if approximate else None,
                range_image=target_state.range_image,
            )
            tracer.count_stats(stage_stats["RPCE"])
            tracer.annotate(
                iterations=icp_result.iterations,
                converged=icp_result.converged,
                n_correspondences=icp_result.n_correspondences,
            )

        success = icp_result.n_correspondences >= 6 and np.all(
            np.isfinite(icp_result.transformation)
        )
        return RegistrationResult(
            transformation=icp_result.transformation,
            initial_transformation=initial_transform,
            icp=icp_result,
            profiler=profiler,
            stage_stats=stage_stats,
            n_source_keypoints=n_source_kp,
            n_target_keypoints=n_target_kp,
            n_feature_correspondences=n_feature_corr,
            n_inlier_correspondences=n_inliers,
            success=success,
        )

    # ------------------------------------------------------------------
    # The classic one-call entry point: preprocess both, then match.
    # ------------------------------------------------------------------

    def register(
        self,
        source: PointCloud,
        target: PointCloud,
        initial: np.ndarray | None = None,
        profiler: StageProfiler | None = None,
    ) -> RegistrationResult:
        """Estimate the transform aligning ``source`` onto ``target``.

        ``initial``, if given, seeds the fine-tuning phase directly and
        the initial-estimation phase is skipped (as is also the case
        with ``config.skip_initial_estimation``).
        """
        # Reject empty inputs before any preprocessing work; voxel
        # downsampling cannot empty a non-empty cloud, so this is
        # equivalent to (but cheaper than) preprocess's own check.
        if len(source) == 0 or len(target) == 0:
            raise ValueError("cannot register empty point clouds")
        profiler = profiler or StageProfiler()
        run_initial = self.runs_initial(initial)
        source_state = self.preprocess(
            source, profiler=profiler, with_features=run_initial
        )
        target_state = self.preprocess(
            target, profiler=profiler, with_features=run_initial
        )
        return self.match(
            source_state, target_state, initial=initial, profiler=profiler
        )

