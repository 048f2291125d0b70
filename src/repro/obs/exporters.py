"""Exporters: Prometheus text exposition and OTLP-style trace JSONL.

Bridges from the in-process observability substrate to the two wire
formats monitoring stacks actually scrape and ingest:

* :func:`prometheus_text` renders a :class:`~repro.obs.metrics.MetricsRegistry`
  in the Prometheus text exposition format (``# TYPE`` headers, counters
  with the ``_total`` convention, cumulative ``le``-labelled histogram
  buckets).  The CLI's ``--prom-out`` writes it next to the JSON
  snapshot; a future ``repro serve`` can serve it on ``/metrics``
  verbatim.
* :func:`otlp_spans` / :func:`write_otlp_jsonl` render recorded span
  events as OTLP-style span objects, one JSON line each — hex trace and
  span ids, parent links, nanosecond timestamps, key/value attributes.
  The trace id derives from the active :class:`RunContext` so exported
  spans are attributable to their run.

Both outputs are deterministic for a given input: series and spans are
emitted in sorted order, timestamps are normalized against the earliest
span, span ids are assigned in output order, and thread ids are remapped
to dense indices (the OS values vary run to run).
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable

from .metrics import MetricsRegistry
from .trace import SpanEvent, _jsonable
from .profile import _nested_in
from .telemetry.context import current_run

__all__ = ["otlp_spans", "prometheus_text", "write_otlp_jsonl"]


def _prom_name(name: str, namespace: str) -> str:
    """A Prometheus-legal metric name (dots and dashes become ``_``)."""

    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return f"{namespace}_{cleaned}" if namespace else cleaned


def _prom_float(value: float) -> str:
    """Compact float rendering matching Prometheus conventions."""

    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def prometheus_text(
    registry: MetricsRegistry, *, namespace: str = "repro"
) -> str:
    """Render the registry in the Prometheus text exposition format."""

    lines: list[str] = []
    for name, value in sorted(registry.counters.items()):
        metric = _prom_name(name, namespace) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")
    for name, value in sorted(registry.gauges.items()):
        metric = _prom_name(name, namespace)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_float(value)}")
    for name, histogram in sorted(registry.histograms.items()):
        metric = _prom_name(name, namespace)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(
            histogram.boundaries, histogram.bucket_counts
        ):
            cumulative += count
            lines.append(
                f'{metric}_bucket{{le="{format(bound, "g")}"}} {cumulative}'
            )
        lines.append(f'{metric}_bucket{{le="+Inf"}} {histogram.count}')
        lines.append(f"{metric}_sum {_prom_float(histogram.total)}")
        lines.append(f"{metric}_count {histogram.count}")
    return "\n".join(lines) + "\n"


def _trace_id(explicit: str | None) -> str:
    """A 32-hex-char trace id, derived from the active run context."""

    if explicit is not None:
        return explicit
    context = current_run()
    seed = context.run_id if context is not None else "repro"
    return hashlib.sha256(seed.encode("utf-8")).hexdigest()[:32]


def otlp_spans(
    events: Iterable[SpanEvent], *, trace_id: str | None = None
) -> list[dict]:
    """Render span events as OTLP-style span dicts, deterministically.

    Parent links are rebuilt per recording thread with the same
    stack-of-open-spans pass the profiler uses; the output is ordered by
    (start, depth, name, thread), timestamps are nanoseconds from the
    earliest span, and span ids are 16-hex indices in output order.
    """

    events = list(events)
    if not events:
        return []
    origin = min(event.start for event in events)
    # Dense, deterministic thread indices: threads ordered by their
    # earliest event (OS thread ids differ run to run).
    by_thread: dict[int, list[SpanEvent]] = {}
    for event in events:
        by_thread.setdefault(event.thread_id, []).append(event)
    thread_order = sorted(
        by_thread, key=lambda tid: (min(e.start for e in by_thread[tid]), tid)
    )
    thread_index = {tid: index for index, tid in enumerate(thread_order)}
    # Rebuild parent links per thread (events carry only parent *names*).
    parent_of: dict[int, SpanEvent | None] = {}
    for thread_events in by_thread.values():
        ordered = sorted(thread_events, key=lambda e: (e.start, e.depth))
        stack: list[SpanEvent] = []
        for event in ordered:
            while stack and not _nested_in(event, stack[-1]):
                stack.pop()
            parent_of[id(event)] = stack[-1] if stack else None
            stack.append(event)
    output = sorted(
        events,
        key=lambda e: (
            e.start,
            e.depth,
            e.name,
            thread_index[e.thread_id],
        ),
    )
    span_id = {
        id(event): f"{index + 1:016x}" for index, event in enumerate(output)
    }
    trace = _trace_id(trace_id)
    spans: list[dict] = []
    for event in output:
        parent = parent_of.get(id(event))
        start_ns = int(round((event.start - origin) * 1e9))
        end_ns = int(round((event.end - origin) * 1e9))
        spans.append(
            {
                "traceId": trace,
                "spanId": span_id[id(event)],
                "parentSpanId": span_id[id(parent)] if parent else "",
                "name": event.name,
                "kind": "SPAN_KIND_INTERNAL",
                "startTimeUnixNano": start_ns,
                "endTimeUnixNano": end_ns,
                "attributes": [
                    {
                        "key": key,
                        "value": {"stringValue": str(_jsonable(value))},
                    }
                    for key, value in sorted(
                        event.attrs.items(), key=lambda kv: kv[0]
                    )
                ],
                "thread": thread_index[event.thread_id],
            }
        )
    return spans


def write_otlp_jsonl(
    events: Iterable[SpanEvent], path, *, trace_id: str | None = None
) -> int:
    """Write one OTLP-style span JSON object per line; returns the count."""

    import pathlib

    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    spans = otlp_spans(events, trace_id=trace_id)
    with open(path, "w") as sink:
        for span in spans:
            sink.write(json.dumps(span, sort_keys=True) + "\n")
    return len(spans)
