"""Trace exporters: Chrome trace-event JSON and flat JSONL run records.

Two serializations of the same span tree, for two audiences:

* :func:`write_chrome_trace` emits the Chrome trace-event format
  (``{"traceEvents": [...]}`` with balanced ``B``/``E`` duration
  events), loadable in Perfetto / ``chrome://tracing``.  Adopted
  worker subtrees (DSE child processes) are laid out on their own
  named tracks via their recorded pid.  The file may embed the run's
  ``profilerTotals`` (stage name -> seconds from the StageProfiler
  shim) so ``tools/check_trace.py`` can cross-check the span tree
  against the legacy table.
* :func:`write_jsonl` emits one self-describing record per line — a
  versioned header, one flat ``span`` record per tree node (with its
  materialized path), and a final ``counters`` record with the
  registry totals: the machine-readable run record.

Both schemas are documented in the "Trace file formats" section of the
repository README.  :func:`write_trace` dispatches on the output path's
extension (``.jsonl`` -> JSONL, anything else -> Chrome trace), which
is what the ``--trace out.json`` flags on the examples call.
"""

from __future__ import annotations

import json

__all__ = [
    "JSONL_SCHEMA",
    "chrome_trace_events",
    "write_chrome_trace",
    "write_jsonl",
    "write_trace",
]

# Bump on any backwards-incompatible change to the JSONL record shape;
# documented in the README's "Trace file formats" section.
JSONL_SCHEMA = "repro.telemetry.run/1"

_MAIN_TRACK = 0


def _span_args(span) -> dict:
    """Flatten a span's annotations, counters, and charges for export."""
    args = dict(span.args)
    args.update(span.counters)
    for name, seconds in span.charges.items():
        args[f"{name}_s"] = round(seconds, 6)
    return args


def chrome_trace_events(tracer) -> list[dict]:
    """The trace as a flat list of Chrome ``B``/``E`` + metadata events.

    Events are emitted in tree order per track, so every ``B`` has its
    matching ``E`` and nesting is well-formed by construction —
    ``tools/check_trace.py`` verifies exactly that invariant.
    Timestamps are microseconds relative to the earliest span so the
    viewer timeline starts at zero.
    """
    starts = [
        span.start for root in tracer.roots for span in root.walk()
    ]
    t0 = min(starts) if starts else 0.0
    pid = tracer.pid
    events: list[dict] = []
    tracks: set[int] = set()

    def emit(span, inherited_track):
        track = span.track if span.track is not None else inherited_track
        tracks.add(track)
        begin = {
            "name": span.name,
            "ph": "B",
            "ts": round((span.start - t0) * 1e6, 3),
            "pid": pid,
            "tid": track,
        }
        if span.category:
            begin["cat"] = span.category
        args = _span_args(span)
        if args:
            begin["args"] = args
        events.append(begin)
        for child in span.children:
            emit(child, track)
        end = span.end if span.end is not None else span.start
        events.append(
            {
                "name": span.name,
                "ph": "E",
                "ts": round((end - t0) * 1e6, 3),
                "pid": pid,
                "tid": track,
            }
        )

    for root in tracer.roots:
        emit(root, _MAIN_TRACK)

    for track in sorted(tracks):
        name = "main" if track == _MAIN_TRACK else f"worker-{track}"
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": track,
                "args": {"name": name},
            }
        )
    return events


def _jsonable(value):
    """JSON ``default=`` hook for numpy scalars and stray objects."""
    if hasattr(value, "item"):
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    return str(value)


def write_chrome_trace(
    tracer, path: str, profiler_totals: dict | None = None, meta: dict | None = None
) -> None:
    """Write the tracer's spans as a Chrome trace-event JSON file.

    ``profiler_totals`` (stage name -> seconds) embeds the run's
    StageProfiler view for the ``tools/check_trace.py`` cross-check;
    ``meta`` lands under ``otherData`` for human context.
    """
    payload: dict = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
    }
    if meta:
        payload["otherData"] = meta
    if profiler_totals is not None:
        payload["profilerTotals"] = {
            name: round(seconds, 6) for name, seconds in profiler_totals.items()
        }
    payload["counterTotals"] = tracer.counters.totals()
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, default=_jsonable)
        f.write("\n")


def _jsonl_records(tracer, meta: dict | None) -> list[dict]:
    header: dict = {
        "record": "header",
        "schema": JSONL_SCHEMA,
        "pid": tracer.pid,
        "epoch_unix": round(tracer.epoch, 6),
    }
    if meta:
        header["meta"] = meta
    records = [header]

    def emit(span, path, depth):
        span_path = f"{path}/{span.name}" if path else span.name
        record: dict = {
            "record": "span",
            "name": span.name,
            "path": span_path,
            "depth": depth,
            "start_s": round(span.start, 6),
            "dur_s": round(span.duration, 6),
        }
        if span.category:
            record["category"] = span.category
        if span.track is not None:
            record["track"] = span.track
        if span.args:
            record["args"] = span.args
        if span.counters:
            record["counters"] = span.counters
        if span.charges:
            record["charges"] = {
                name: round(seconds, 6)
                for name, seconds in span.charges.items()
            }
        records.append(record)
        for child in span.children:
            emit(child, span_path, depth + 1)

    for root in tracer.roots:
        emit(root, "", 0)
    records.append({"record": "counters", "totals": tracer.counters.totals()})
    return records


def write_jsonl(tracer, path: str, meta: dict | None = None) -> None:
    """Write the flat JSONL run record (one record per line)."""
    with open(path, "w", encoding="utf-8") as f:
        for record in _jsonl_records(tracer, meta):
            f.write(json.dumps(record, default=_jsonable))
            f.write("\n")


def write_trace(
    tracer, path: str, profiler_totals: dict | None = None, meta: dict | None = None
) -> None:
    """Dispatch on extension: ``.jsonl`` -> run record, else Chrome trace."""
    if path.endswith(".jsonl"):
        write_jsonl(tracer, path, meta=meta)
    else:
        write_chrome_trace(tracer, path, profiler_totals=profiler_totals, meta=meta)
