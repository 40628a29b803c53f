"""In-memory span store for the traced benchmark run.

Each span records the op it belongs to, its parent span, its layer name,
its start and end on one monotonic clock, and the counts its wrapper
read from the layer's return values.  Spans nest strictly: the recorder
keeps a stack, so a span opened inside another becomes its child.

A span's *self time* is its duration minus the part of that interval its
children cover.  The op root's self time is the ``other`` row: op time
that no wrapped layer accounts for.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

OTHER = "other"


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "counts", "children")

    def __init__(self, span_id, parent, op, name, start):
        self.id = span_id
        self.parent = parent
        self.op = op
        self.name = name
        self.start = start
        self.end = None
        self.counts = {}
        self.children = []

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the union of the children's intervals."""
        covered = 0.0
        reach = self.start
        for child in sorted(self.children, key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.duration - covered


class SpanRecorder:
    """Records spans between :meth:`op` boundaries; ``clock`` is injectable."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.ops: list[Span] = []
        self._stack: list[Span] = []

    def begin(self, name: str) -> Span | None:
        """Open a layer span under the innermost open span.

        Calls made outside any op (set-up, checks) are not recorded.
        """
        if not self._stack:
            return None
        parent = self._stack[-1]
        span = Span(len(self.spans), parent.id, parent.op, name, self.clock())
        parent.children.append(span)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span | None) -> None:
        if span is None:
            return
        if self._stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._stack.pop()
        span.end = self.clock()

    @contextmanager
    def op(self, op_id: int):
        """The root span of one op; layer spans opened inside nest under it."""
        if self._stack:
            raise RuntimeError("ops do not nest")
        root = Span(len(self.spans), None, op_id, OTHER, self.clock())
        self.spans.append(root)
        self.ops.append(root)
        self._stack.append(root)
        try:
            yield root
        finally:
            self._stack.pop()
            root.end = self.clock()

    def layer_totals(self) -> dict[str, dict]:
        """Per layer: summed self time, summed duration, span count, counts."""
        totals: dict[str, dict] = defaultdict(
            lambda: {"self": 0.0, "total": 0.0, "spans": 0, "counts": defaultdict(float)}
        )
        for span in self.spans:
            entry = totals[span.name]
            entry["self"] += span.self_time
            entry["total"] += span.duration
            entry["spans"] += 1
            for key, value in span.counts.items():
                entry["counts"][key] += value
        return dict(totals)

    def tail_shares(self, q: float = 0.9) -> dict[str, float]:
        """Per layer: its spans' total time within the slowest ops, as a share.

        The slowest ops are those at or above the ``q`` quantile of op
        time; a layer's time there includes its children, so this reads
        as "how much of the tail happens inside this layer".
        """
        durations = sorted(root.duration for root in self.ops)
        if not durations:
            return {}
        cut = durations[min(len(durations) - 1, int(q * len(durations)))]
        tail = {root.op for root in self.ops if root.duration >= cut}
        tail_time = sum(root.duration for root in self.ops if root.op in tail)
        shares: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.op in tail and span.parent is not None:
                shares[span.name] += span.duration / tail_time
        return dict(shares)

    def accounting_error(self) -> float:
        """Largest per-op gap between Σ self times and the op's time, as a share.

        Every op's layer self times plus its ``other`` self time must add
        up to the op's traced duration; a span escaping its parent or
        overlapping a sibling breaks the sum.
        """
        per_op: dict[int, float] = defaultdict(float)
        for span in self.spans:
            per_op[span.op] += span.self_time
        worst = 0.0
        for root in self.ops:
            if root.duration > 0:
                worst = max(worst, abs(per_op[root.op] - root.duration) / root.duration)
        return worst

    def write_jsonl(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"record": "header", **meta}) + "\n")
            for span in self.spans:
                f.write(
                    json.dumps(
                        {
                            "record": "span",
                            "id": span.id,
                            "parent": span.parent,
                            "op": span.op,
                            "name": span.name,
                            "start_ms": round(span.start * 1e3, 4),
                            "dur_ms": round(span.duration * 1e3, 4),
                            "self_ms": round(span.self_time * 1e3, 4),
                            "counts": span.counts,
                        }
                    )
                    + "\n"
                )
