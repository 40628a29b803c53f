"""Hierarchical span tracer.

The paper's whole argument is an observability argument: Fig. 4's stage
breakdown, Fig. 6's search-work counts, and the Sec. 6 accelerator
evaluation all start from *measuring what the workload actually did*.
This module is the substrate for that measurement across every layer of
the repro: a :class:`Tracer` records a tree of timed :class:`Span`
objects (``mapper -> pair -> match -> RPCE``), each span carrying

* wall-clock duration on one monotonic clock (``time.perf_counter``)
  plus the tracer's wall-clock epoch so traces from different processes
  share a timebase when merged;
* free-form ``args`` annotations (ICP iterations, pose-graph mode,
  active-set size, ...);
* integer/float ``counters`` — typically the
  :class:`~repro.kdtree.stats.SearchStats` fields of the stage that ran
  inside the span, attached via :meth:`Tracer.count_stats`;
* cross-cutting time ``charges`` (KD-tree search / construction
  seconds), attributed to the innermost open span exactly like
  :meth:`~repro.profiling.StageProfiler.charge_search` attributes them
  to the open stage.

Counters roll up: :meth:`Span.total_counters` and
:meth:`Span.total_charges` aggregate a span's own values with all of
its descendants', and the tracer-wide :class:`CounterRegistry` keeps
run totals independent of the tree.

Tracing must cost nothing when off.  Call sites never branch on a
flag; they call the same methods on :data:`NULL_TRACER`, a
:class:`NullTracer` whose every method is a constant-time no-op (its
``span()`` returns one preallocated context manager).  The overhead of
the disabled path is a few attribute lookups per *stage*, not per
query — unmeasurable next to the stages themselves.

Crossing process boundaries (the DSE ``ProcessPoolExecutor``):
:meth:`Tracer.freeze` serializes a tracer's span tree to plain dicts
with absolute (epoch-based) timestamps, and :meth:`Tracer.adopt`
grafts such a payload into another tracer — re-based onto the
adopter's clock and tagged with the originating process id so
exporters can lay worker subtrees out on their own tracks.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import fields, is_dataclass

from repro.telemetry.counters import CounterRegistry

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "tracer_of"]

# Span categories: "stage" marks spans opened by the StageProfiler shim
# (the Fig. 4 stage names); everything else is a structural span.
STAGE_CATEGORY = "stage"


def _plain(value):
    """Coerce annotation values to JSON-serializable Python scalars."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return str(value)


class Span:
    """One timed node of the trace tree.

    ``start``/``end`` are seconds on the owning tracer's monotonic
    clock (``perf_counter``); absolute wall-clock times are recovered
    by adding the tracer's ``epoch``.  ``track`` is ``None`` for spans
    recorded in-process and the originating pid for adopted subtrees.
    """

    __slots__ = (
        "name",
        "category",
        "start",
        "end",
        "args",
        "counters",
        "charges",
        "children",
        "track",
    )

    def __init__(self, name: str, start: float, category: str | None = None):
        self.name = name
        self.category = category
        self.start = start
        self.end: float | None = None
        self.args: dict = {}
        self.counters: dict = {}
        self.charges: dict = {}
        self.children: list[Span] = []
        self.track: int | None = None

    @property
    def duration(self) -> float:
        """Span wall time in seconds (0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def total_counters(self) -> dict:
        """This span's counters plus every descendant's, summed."""
        totals = dict(self.counters)
        for child in self.children:
            for name, value in child.total_counters().items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def total_charges(self) -> dict:
        """This span's time charges plus every descendant's, summed."""
        totals = dict(self.charges)
        for child in self.children:
            for name, value in child.total_charges().items():
                totals[name] = totals.get(name, 0.0) + value
        return totals

    def walk(self):
        """Yield this span and all descendants, depth-first pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self, epoch: float) -> dict:
        """Serialize with absolute (epoch-based) timestamps."""
        return {
            "name": self.name,
            "category": self.category,
            "start": epoch + self.start,
            "end": None if self.end is None else epoch + self.end,
            "args": self.args,
            "counters": self.counters,
            "charges": self.charges,
            "children": [c.to_dict(epoch) for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict, epoch: float, track: int | None) -> "Span":
        """Rebuild from :meth:`to_dict` output onto a new clock."""
        span = cls(data["name"], data["start"] - epoch, data.get("category"))
        end = data.get("end")
        span.end = None if end is None else end - epoch
        span.args = dict(data.get("args", {}))
        span.counters = dict(data.get("counters", {}))
        span.charges = dict(data.get("charges", {}))
        span.track = track
        span.children = [
            cls.from_dict(child, epoch, track)
            for child in data.get("children", [])
        ]
        return span

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration:.4f}s, "
            f"{len(self.children)} children)"
        )


FREEZE_SCHEMA = "repro.telemetry.trace/1"


class Tracer:
    """Records a forest of nested spans plus run-total counters."""

    enabled = True

    def __init__(self):
        # Wall-clock origin of this tracer's monotonic timestamps:
        # absolute time = epoch + span.start.  Captured once so merged
        # cross-process traces agree to clock-sync precision.
        self.epoch = time.time() - time.perf_counter()
        self.pid = os.getpid()
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self.counters = CounterRegistry()

    # ------------------------------------------------------------------
    # Span lifecycle.
    # ------------------------------------------------------------------

    @property
    def current(self) -> Span | None:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    def begin(self, name: str, category: str | None = None, **args) -> Span:
        """Open a span under the innermost open span (or as a root)."""
        span = Span(name, time.perf_counter(), category)
        if args:
            span.args.update({k: _plain(v) for k, v in args.items()})
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span, duration: float | None = None) -> None:
        """Close ``span``; must be the innermost open span.

        ``duration`` overrides the measured wall time — the
        StageProfiler shim passes its own measured elapsed time so the
        span tree and the stage table agree *exactly*, not just to
        clock precision.
        """
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} closed out of order "
                f"(innermost is {self._stack[-1].name if self._stack else None!r})"
            )
        self._stack.pop()
        if duration is not None:
            span.end = span.start + duration
        else:
            span.end = time.perf_counter()

    @contextmanager
    def span(self, name: str, category: str | None = None, **args):
        """``with tracer.span("mapper"): ...`` — spans nest arbitrarily."""
        opened = self.begin(name, category, **args)
        try:
            yield opened
        finally:
            self.end(opened)

    # ------------------------------------------------------------------
    # Annotations, counters, and cross-cutting charges.
    # ------------------------------------------------------------------

    def annotate(self, **kwargs) -> None:
        """Attach key/value annotations to the innermost open span."""
        if self._stack:
            self._stack[-1].args.update(
                {k: _plain(v) for k, v in kwargs.items()}
            )

    def count(self, name: str, value=1) -> None:
        """Add to a named counter on the innermost span and the registry."""
        value = _plain(value)
        self.counters.add(name, value)
        if self._stack:
            counters = self._stack[-1].counters
            counters[name] = counters.get(name, 0) + value

    def count_stats(self, stats) -> None:
        """Attach every field of a stats dataclass as counter deltas.

        Typically called with the just-finished stage's
        :class:`~repro.kdtree.stats.SearchStats`; zero fields are
        skipped so spans stay compact.  Works for any flat dataclass of
        numeric fields (mapper/pose-graph counters included).
        """
        if not is_dataclass(stats):
            raise TypeError(f"expected a dataclass, got {type(stats).__name__}")
        for field_ in fields(stats):
            value = getattr(stats, field_.name)
            if value:
                self.count(field_.name, value)

    def charge(self, name: str, seconds: float) -> None:
        """Attribute cross-cutting seconds to the innermost open span."""
        if self._stack:
            charges = self._stack[-1].charges
            charges[name] = charges.get(name, 0.0) + seconds

    # Aliases matching the StageProfiler vocabulary, so the searcher's
    # charge keys and the shim's forwarding read the same.
    def charge_search(self, seconds: float) -> None:
        self.charge("kdtree_search", seconds)

    def charge_construction(self, seconds: float) -> None:
        self.charge("kdtree_construction", seconds)

    # ------------------------------------------------------------------
    # Process-boundary serialization.
    # ------------------------------------------------------------------

    def freeze(self) -> dict:
        """Serialize the whole trace to plain picklable/JSON-able dicts.

        Timestamps become absolute (epoch-based) so the payload can be
        re-based onto any other tracer's clock by :meth:`adopt`.
        """
        return {
            "schema": FREEZE_SCHEMA,
            "pid": self.pid,
            "spans": [span.to_dict(self.epoch) for span in self.roots],
            "counters": self.counters.totals(),
        }

    def adopt(self, payload: dict) -> list[Span]:
        """Graft a frozen trace under the innermost open span.

        Spans are re-based onto this tracer's clock and tagged with the
        originating pid (``Span.track``); the payload's counter totals
        fold into this tracer's registry.  Returns the adopted roots.
        """
        if payload.get("schema") != FREEZE_SCHEMA:
            raise ValueError(
                f"cannot adopt trace payload with schema "
                f"{payload.get('schema')!r} (expected {FREEZE_SCHEMA!r})"
            )
        track = payload.get("pid")
        if track == self.pid:
            # Same-process payload (workers=1 path): keep it on the
            # adopter's main track instead of a synthetic worker track.
            track = None
        adopted = [
            Span.from_dict(span, self.epoch, track)
            for span in payload.get("spans", [])
        ]
        parent = self.current
        if parent is not None:
            parent.children.extend(adopted)
        else:
            self.roots.extend(adopted)
        self.counters.merge(payload.get("counters", {}))
        return adopted

    # ------------------------------------------------------------------
    # Aggregations.
    # ------------------------------------------------------------------

    def stage_rollup(self) -> dict:
        """Per-stage totals recovered purely from the span tree.

        Sums duration and KD-tree charges over every ``category ==
        "stage"`` span, keyed by stage name — the quantity that must
        match the StageProfiler shim's table exactly (pinned by
        ``tests/telemetry/test_shim_equivalence.py``).
        """
        rollup: dict[str, dict] = {}
        for root in self.roots:
            for span in root.walk():
                if span.category != STAGE_CATEGORY:
                    continue
                entry = rollup.setdefault(
                    span.name,
                    {
                        "total": 0.0,
                        "kdtree_search": 0.0,
                        "kdtree_construction": 0.0,
                        "calls": 0,
                    },
                )
                entry["total"] += span.duration
                entry["kdtree_search"] += span.charges.get("kdtree_search", 0.0)
                entry["kdtree_construction"] += span.charges.get(
                    "kdtree_construction", 0.0
                )
                entry["calls"] += 1
        return rollup


class _NullSpan:
    """Inert span handed out by the null tracer's context manager."""

    __slots__ = ()
    name = None
    duration = 0.0

    def total_counters(self):
        return {}

    def total_charges(self):
        return {}


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self):
        return _NULL_SPAN

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullSpanContext()


class NullTracer:
    """Do-nothing tracer: the always-safe default for every call site.

    Every method is a constant-time no-op; ``span()`` returns one
    preallocated context manager, so the disabled-tracing hot path
    allocates nothing.
    """

    enabled = False
    current = None
    roots = ()

    def span(self, name, category=None, **args):
        return _NULL_CONTEXT

    def begin(self, name, category=None, **args):
        return _NULL_SPAN

    def end(self, span, duration=None):
        pass

    def annotate(self, **kwargs):
        pass

    def count(self, name, value=1):
        pass

    def count_stats(self, stats):
        pass

    def charge(self, name, seconds):
        pass

    def charge_search(self, seconds):
        pass

    def charge_construction(self, seconds):
        pass

    def stage_rollup(self):
        return {}


NULL_TRACER = NullTracer()


def tracer_of(profiler) -> "Tracer | NullTracer":
    """The tracer backing a StageProfiler, or the null tracer.

    The profiler argument is how a tracer travels through the pipeline
    layers (every entry point already threads one); instrumentation
    points call ``tracer_of(profiler)`` and never branch on enablement.
    """
    tracer = getattr(profiler, "tracer", None)
    return NULL_TRACER if tracer is None else tracer
