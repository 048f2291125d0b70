"""Structured span tracing for the Omega pipeline.

Instrumented sites wrap their work in ``with span("omega.project", ...):``
blocks.  When neither a tracer nor a metrics registry is active on the
current thread the call returns a shared no-op handle — two thread-local
list checks — so disabled instrumentation is effectively free.  When a
tracer *is* active (pushed with :func:`tracing`), each block produces a
:class:`SpanEvent` with wall-clock start/duration, the recording thread,
its parent span (a thread-local span stack tracks nesting) and arbitrary
attributes.  When only a metrics registry is collecting (no tracer), the
block still measures a real duration — exposed as ``Span.duration`` — so
the per-phase latency histograms are populated without paying for event
storage.

:meth:`Tracer.to_chrome_trace` / :meth:`Tracer.write_chrome_trace` export
the Chrome ``traceEvents`` JSON format, loadable in ``chrome://tracing``
and Perfetto, with one complete ("ph": "X") event per span.

Attribute values are kept as the objects passed in and only stringified at
export time, so hot instrumented sites never pay for formatting.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Iterator, Sequence

from .metrics import _registries as _metrics_stack

__all__ = [
    "Span",
    "SpanEvent",
    "Tracer",
    "active",
    "chrome_trace",
    "current_tracer",
    "span",
    "tracing",
]


@dataclass
class SpanEvent:
    """One completed span, as stored by a :class:`Tracer`."""

    name: str
    start: float  #: ``perf_counter`` timestamp at entry.
    duration: float  #: seconds
    thread_id: int
    parent: str | None = None
    depth: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


def _jsonable(value):
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


class Tracer:
    """Collects span events; safe to share across threads."""

    def __init__(self) -> None:
        self.events: list[SpanEvent] = []
        self.origin = perf_counter()
        self._lock = threading.Lock()

    def record(self, event: SpanEvent) -> None:
        with self._lock:
            self.events.append(event)

    def span_names(self) -> set[str]:
        return {event.name for event in self.events}

    # -- exporters ------------------------------------------------------
    def to_chrome_trace(self) -> dict:
        return chrome_trace(self.events)

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as sink:
            json.dump(self.to_chrome_trace(), sink, indent=1)


def chrome_trace(events: Iterable[SpanEvent], *, origin: float | None = None) -> dict:
    """Render span events as a Chrome-trace / Perfetto JSON object.

    Timestamps are normalized against ``origin`` — by default the earliest
    event start, so the timeline begins at 0 and identical span trees
    render identically regardless of when they were recorded.  Events are
    ordered deterministically: by start time, enclosing spans before their
    children on ties, then by name and thread.
    """

    events = list(events)
    if origin is None:
        origin = min((event.start for event in events), default=0.0)
    trace_events = []
    for event in events:
        trace_events.append(
            {
                "name": event.name,
                "cat": event.name.split(".", 1)[0],
                "ph": "X",
                "ts": (event.start - origin) * 1e6,  # microseconds
                "dur": event.duration * 1e6,
                "pid": os.getpid(),
                "tid": event.thread_id,
                "args": {
                    key: _jsonable(value) for key, value in event.attrs.items()
                },
            }
        )
    trace_events.sort(
        key=lambda item: (item["ts"], -item["dur"], item["name"], item["tid"])
    )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.tracers: list[Tracer] = []
        self.spans: list["Span"] = []


_state = _ThreadState()


class _NullSpan:
    """Shared no-op handle returned when tracing is disabled."""

    __slots__ = ()
    name = ""
    duration = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL = _NullSpan()


class Span:
    """A live span handle; exposes ``duration`` after the block exits."""

    __slots__ = ("name", "attrs", "tracers", "start", "duration", "parent", "depth")

    def __init__(self, name: str, attrs: dict, tracers: Sequence[Tracer]):
        self.name = name
        self.attrs = attrs
        self.tracers = tracers
        self.start = 0.0
        self.duration = 0.0
        self.parent: str | None = None
        self.depth = 0

    def __enter__(self) -> "Span":
        spans = _state.spans
        if spans:
            self.parent = spans[-1].name
            self.depth = spans[-1].depth + 1
        spans.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = perf_counter()
        self.duration = end - self.start
        _state.spans.pop()
        if not self.tracers:
            # Metrics-only span: the measured duration is all callers need.
            return False
        event = SpanEvent(
            self.name,
            self.start,
            self.duration,
            threading.get_ident(),
            self.parent,
            self.depth,
            self.attrs,
        )
        for tracer in self.tracers:
            tracer.record(event)
        return False


def span(name: str, **attrs):
    """A context manager timing one named region of work.

    Returns a recording :class:`Span` when a tracer is active on this
    thread.  When only a metrics registry is collecting, returns a
    non-recording :class:`Span` that still measures ``duration`` (so call
    sites can feed latency histograms).  Otherwise returns a shared no-op
    handle (``duration`` stays ``0.0``).
    """

    tracers = _state.tracers
    if tracers:
        return Span(name, attrs, tuple(tracers))
    if _metrics_stack.stack:
        return Span(name, attrs, ())
    return _NULL


def active() -> bool:
    """True when at least one tracer is active on this thread."""

    return bool(_state.tracers)


def current_tracer() -> Tracer | None:
    """The innermost active tracer on this thread, or None."""

    tracers = _state.tracers
    return tracers[-1] if tracers else None


@contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Activate a tracer for the enclosed calls (on this thread)."""

    tracer = tracer if tracer is not None else Tracer()
    _state.tracers.append(tracer)
    try:
        yield tracer
    finally:
        _state.tracers.pop()
